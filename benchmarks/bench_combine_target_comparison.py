"""E7: combining target and comparison queries (§3.3, optimization 1).

"This simple optimization halves the time required to compute the results
for a single view." Deterministically the rewrite halves DBMS round trips
and table scans; the benchmark verifies both and measures the wall-clock
ratio on the in-memory backend (where scans are cheap, so the wall-clock
gain is smaller than 2x — see EXPERIMENTS.md notes).
"""

import pytest

from repro.backends.memory import MemoryBackend
from repro.model.view import ViewSpec
from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup

VIEWS = [ViewSpec(f"d{i}", "m0", "sum") for i in range(5)]


@pytest.fixture(scope="module")
def backend(synth_large):
    backend = MemoryBackend()
    backend.register_table(synth_large.table)
    return backend


def make_plan(predicate, combined: bool) -> ExecutionPlan:
    return ExecutionPlan(
        [
            ExecutionStep(
                "synthetic",
                predicate,
                (ViewGroup(v.dimension, (v,)),),
                combine_flag=combined,
            )
            for v in VIEWS
        ]
    )


def test_separate_queries_baseline(benchmark, backend, synth_large):
    plan = make_plan(synth_large.predicate, combined=False)
    backend.engine.stats.reset()
    benchmark.pedantic(lambda: plan.run(backend), rounds=3, iterations=1)
    assert backend.engine.stats.queries == 3 * 2 * len(VIEWS)


def test_combined_flag_queries(benchmark, backend, synth_large, record_rows):
    plan = make_plan(synth_large.predicate, combined=True)
    backend.engine.stats.reset()
    benchmark.pedantic(lambda: plan.run(backend), rounds=3, iterations=1)
    # Exactly half the queries and half the scans of the baseline.
    assert backend.engine.stats.queries == 3 * len(VIEWS)
    record_rows(
        "e7_combine_target_comparison",
        [
            {"plan": "separate", "queries_per_view": 2, "scans_per_view": 2},
            {"plan": "flag-combined", "queries_per_view": 1, "scans_per_view": 1},
        ],
    )


def test_results_identical(benchmark, backend, synth_large):
    benchmark.pedantic(
        lambda: _check_identical(backend, synth_large), rounds=1, iterations=1
    )


def _check_identical(backend, synth_large):
    def comparisons(plan):
        return {
            spec: block.comparison[row]
            for block in plan.run(backend)
            for row, spec in enumerate(block.specs)
        }

    separate = comparisons(make_plan(synth_large.predicate, combined=False))
    combined = comparisons(make_plan(synth_large.predicate, combined=True))
    import numpy as np

    for view in VIEWS:
        np.testing.assert_allclose(separate[view], combined[view], equal_nan=True)


@pytest.fixture(scope="module")
def sqlite_backend_e7(synth_small):
    from repro.backends.sqlite import SqliteBackend

    backend = SqliteBackend()
    backend.register_table(synth_small.table)
    yield backend
    backend.close()


def test_separate_queries_sqlite(benchmark, sqlite_backend_e7, synth_small):
    """On a scan-bound DBMS the 2x query saving shows up in wall time."""
    plan = make_plan(synth_small.predicate, combined=False)
    benchmark.pedantic(lambda: plan.run(sqlite_backend_e7), rounds=3, iterations=1)


def test_combined_flag_queries_sqlite(benchmark, sqlite_backend_e7, synth_small):
    plan = make_plan(synth_small.predicate, combined=True)
    benchmark.pedantic(lambda: plan.run(sqlite_backend_e7), rounds=3, iterations=1)
