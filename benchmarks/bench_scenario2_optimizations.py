"""E16: Scenario 2 knob — the optimization toggles (cumulative ablation).

"Attendees will also be able to select the optimizations that SEEDB
applies and observe the effect on response times and accuracy." One row
per cumulative optimization bundle, with latency, query count, and scan
count; recommendations must stay identical across all bundles (the
optimizations trade work, not answers — sampling, which does trade
accuracy, is benchmarked separately in E10).
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.query import RowSelectQuery
from repro.experiments.latency import OPTIMIZATION_GRID, latency_vs_optimizations


def test_optimization_ablation(benchmark, record_rows, synth_large):
    rows = benchmark.pedantic(
        lambda: latency_vs_optimizations(
            synth_large.table, synth_large.predicate, repeats=2
        ),
        rounds=1,
        iterations=1,
    )
    record_rows("e16_optimization_ablation", rows)
    by_config = {row["configuration"]: row for row in rows}
    basic = by_config["basic (none)"]
    combined = by_config["+combine aggregates"]
    grouped = by_config["+combine group-bys"]

    # Deterministic work reductions, in order.
    assert (
        by_config["+combine target/comparison"]["queries"] * 2
        == basic["queries"]
    )
    assert combined["queries"] < by_config["+combine target/comparison"]["queries"]
    assert grouped["queries"] <= combined["queries"]


def test_answers_invariant_across_bundles(benchmark, synth_large):
    benchmark.pedantic(
        lambda: _check_invariance(synth_large), rounds=1, iterations=1
    )


def _check_invariance(synth_large):
    query = RowSelectQuery(synth_large.table.name, synth_large.predicate)
    reference = None
    for label, overrides in OPTIMIZATION_GRID:
        if label == "+pruning":
            continue  # pruning may drop low-utility views; compared in E17
        backend = MemoryBackend()
        backend.register_table(synth_large.table)
        result = SeeDB(
            backend, SeeDBConfig(**overrides)
        ).recommend(RecommendationRequest(query, k=5))
        top = [v.spec for v in result.recommendations]
        if reference is None:
            reference = top
        else:
            assert top == reference, label


def test_fastest_bundle_latency(benchmark, synth_large):
    backend = MemoryBackend()
    backend.register_table(synth_large.table)
    _label, overrides = OPTIMIZATION_GRID[-1]
    seedb = SeeDB(backend, SeeDBConfig(**overrides))
    query = RowSelectQuery(synth_large.table.name, synth_large.predicate)
    benchmark.pedantic(
        lambda: seedb.recommend(RecommendationRequest(query, k=5)),
        rounds=3,
        iterations=1,
    )
