"""E21: the cost-based planner's choice under ``AUTO``, the default.

``AUTO`` prices every plan kind — one GROUPING SETS query per chunk of
dimensions, rollups bin-packed at each budget of the ladder, one scan per
dimension — from the same statistics, and runs the cheapest. Two
workloads:

* **the benchmark's shape** (20k rows, ten 12-value dimensions, ten
  measures, one dimension in the predicate), where pair-keyed rollups
  halve the scans and the aggregate work of one scan per dimension while
  their 288-group results stay cheap to fold: on memory and on sqlite the
  planner picks pair bins, five statements, priced on
  :data:`N_WORKERS` claimers;
* **an adversarial high-cardinality table** on sqlite (four
  150-value dimensions), where the rollup the pinned budget packs
  materializes a near-row-count cross product that the client fetches and
  marginalizes; the planner keeps every 150-value dimension in a step of
  its own.

``AUTO`` prices a candidate's wall-clock on up to ``n_workers``
claimers, which defaults to the usable cores. On memory that bound does
not enter (its steps hold the interpreter lock and run one at a time);
on sqlite it does: from about ten claimers up, ``none``'s ten statements
spread over as many cores and price below five pair rollups on the
benchmark's shape. Every run here pins the bound to :data:`N_WORKERS`,
so the asserted choice is the same on every host: the chosen
arrangement, and the same top-k views as every pinned candidate with
utilities within the rollup path's marginalization tolerance. Each
candidate's predicted and measured seconds are recorded, never
asserted.
"""

import re
import time

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining

REPETITIONS = 3
#: Rollup marginalization sums groups in a different order than a direct
#: group-by; utilities agree to summation-order noise (same bar as the
#: plan-equivalence property tests).
UTILITY_ATOL = 1e-9
BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}
#: The claimer bound every run is planned and executed with.
N_WORKERS = 2
#: Execute the whole view space: the adversarial case measures plan
#: execution, not the pruning rules.
NO_PRUNING = dict(
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
    exclude_predicate_dimensions=False,
)


@pytest.fixture(scope="module")
def benchmark_shape():
    """The end-to-end benchmark's table and one of its requests, served
    with the default configuration."""
    table = generate_synthetic(
        SyntheticConfig(
            n_rows=20_000, n_dimensions=10, n_measures=10, cardinality=12
        ),
        seed=1000,
    ).table
    return table, RowSelectQuery(table.name, col("d3") == "d3=v05"), {}


@pytest.fixture(scope="module")
def adversarial_workload():
    """30k rows, four ~150-cardinality dimensions: rollup bins at the
    pinned budget degenerate to near-row-count results while grouping-set
    arms return ~150 rows."""
    dataset = generate_synthetic(
        SyntheticConfig(
            n_rows=30_000, n_dimensions=4, n_measures=2, cardinality=150
        ),
        seed=11,
    )
    query = RowSelectQuery(dataset.table.name, dataset.predicate)
    return dataset.table, query, NO_PRUNING


def pinned(candidate: str) -> dict:
    """The configuration that plans ``candidate`` alone."""
    kind, _, cells = candidate.partition("@")
    config = {"groupby_combining": GroupByCombining(kind)}
    if cells:
        config["memory_budget_cells"] = int(cells)
    return config


def measure(backend_name, workload, **config):
    """Best-of-N end-to-end recommend on a fresh backend, one session
    across repetitions so caches are warm as in service deployments."""
    table, query, options = workload
    backend = BACKENDS[backend_name]()
    backend.register_table(table)
    result, best = None, None
    try:
        with SeeDB(
            backend, SeeDBConfig(n_workers=N_WORKERS, **options, **config)
        ) as seedb:
            for _ in range(REPETITIONS):
                start = time.perf_counter()
                result = seedb.recommend(RecommendationRequest(query, k=5))
                elapsed = time.perf_counter() - start
                best = elapsed if best is None or elapsed < best else best
    finally:
        backend.close()
    return result, best


def wide_keys_per_step(result) -> list[int]:
    """Per plan step, how many of its keys are generated ``d<i>``
    dimensions (150 values each on the adversarial table)."""
    return [
        len(re.findall(r"\bd\d+\b", step))
        for step in result.plan_description.splitlines()[1:]
    ]


def assert_same_answers(a, b):
    assert [v.spec for v in a.recommendations] == [
        v.spec for v in b.recommendations
    ]
    assert set(a.utilities) == set(b.utilities)
    for spec, utility in a.utilities.items():
        np.testing.assert_allclose(
            utility, b.utilities[spec], atol=UTILITY_ATOL, err_msg=spec.label
        )


def candidate_rows(workload_name, backend_name, workload, auto, auto_seconds):
    """One row per priced candidate: its prediction and its measured
    seconds when pinned, with answers checked against ``AUTO``'s."""
    decision = auto.plan_decision
    rows = [
        {
            "workload": workload_name,
            "backend": backend_name,
            "candidate": "auto",
            "chosen": decision["kind"],
            "predicted_seconds": decision["predicted_seconds"],
            "observed_execute_seconds": decision["observed_seconds"],
            "claimers": decision["recommended_workers"],
            "total_seconds": auto_seconds,
        }
    ]
    for candidate, predicted in decision["candidate_seconds"].items():
        result, seconds = measure(backend_name, workload, **pinned(candidate))
        assert_same_answers(auto, result)
        rows.append(
            {
                "workload": workload_name,
                "backend": backend_name,
                "candidate": candidate,
                "predicted_seconds": predicted,
                "observed_execute_seconds": result.plan_decision["observed_seconds"],
                "claimers": result.plan_decision["recommended_workers"],
                "total_seconds": seconds,
            }
        )
    return rows


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_planner_picks_pair_bins_on_the_benchmark_shape(
    record_rows, benchmark_shape, backend_name
):
    auto, auto_seconds = measure(backend_name, benchmark_shape)
    decision = auto.plan_decision
    assert decision["cost_based"] is True
    assert decision["kind"] == "rollup"
    assert decision["predicted"]["n_statements"] == 5
    steps = auto.plan_description.splitlines()[1:]
    assert len(steps) == 5
    for step in steps:  # one flag-combined rollup over two dimensions each
        assert re.fullmatch(r"\s*rollup\[\['\w+', '\w+'\], 1 query\(ies\)\]", step)
    record_rows(
        f"planner_benchmark_shape_{backend_name}",
        candidate_rows(
            "benchmark_shape", backend_name, benchmark_shape, auto, auto_seconds
        ),
    )


def test_planner_avoids_rollup_on_adversarial_workload(
    record_rows, adversarial_workload
):
    auto, auto_seconds = measure("sqlite", adversarial_workload)
    static, _ = measure(
        "sqlite", adversarial_workload, groupby_combining=GroupByCombining.ROLLUP
    )
    assert_same_answers(auto, static)
    # The adversarial premise: a rollup at the pinned budget packs two
    # 150-value dimensions into one near-row-count cross product; the cost
    # model steers away from it. (It may still let the two-value
    # ``segment`` ride along with one of them: that rollup stays small.)
    assert max(wide_keys_per_step(static)) > 1
    assert max(wide_keys_per_step(auto)) == 1
    record_rows(
        "planner",
        candidate_rows(
            "adversarial_high_cardinality",
            "sqlite",
            adversarial_workload,
            auto,
            auto_seconds,
        ),
    )
