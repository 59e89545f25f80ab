"""E7: combining target and comparison queries (§3.3, optimization 1).

"This simple optimization halves the time required to compute the results
for a single view." Under the whole-table reference the comparison side
does not depend on the predicate, so the combined plan takes it from a
cache computed once per data version: a warm run issues half the DBMS
round trips and table scans of the separate baseline. The benchmark
verifies both and measures the wall-clock ratio on the in-memory backend
(where scans are cheap, so the wall-clock gain is smaller than 2x — see
EXPERIMENTS.md notes).
"""

import pytest

from repro.backends.memory import MemoryBackend
from repro.engine.cache import SessionCache
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


def warm_cache(backend) -> SessionCache:
    """A cache over ``backend`` for the combined plans' comparison sides."""
    cache = SessionCache(backend)
    cache.sync()
    return cache


def queries_per_run(backend, plan, cache) -> int:
    """Queries one warm run of ``plan`` issues (counted apart from the
    timed rounds, whose number depends on the benchmark plugin's mode)."""
    plan.run(backend, cache=cache)
    backend.engine.stats.reset()
    plan.run(backend, cache=cache)
    return backend.engine.stats.queries


def test_separate_queries_baseline(benchmark, backend, synth_large):
    plan = make_plan(synth_large.predicate, combined=False)
    assert queries_per_run(backend, plan, warm_cache(backend)) == 2 * len(VIEWS)
    benchmark.pedantic(lambda: plan.run(backend), rounds=3, iterations=1)


def test_combined_flag_queries(benchmark, backend, synth_large, record_rows):
    plan = make_plan(synth_large.predicate, combined=True)
    cache = warm_cache(backend)
    # Warm, exactly half the queries and half the scans of the baseline.
    assert queries_per_run(backend, plan, cache) == len(VIEWS)
    benchmark.pedantic(lambda: plan.run(backend, cache=cache), rounds=3, iterations=1)
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
    cache = warm_cache(sqlite_backend_e7)
    plan.run(sqlite_backend_e7, cache=cache)
    benchmark.pedantic(
        lambda: plan.run(sqlite_backend_e7, cache=cache), rounds=3, iterations=1
    )
