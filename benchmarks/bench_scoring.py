"""E20: the columnar Score data plane — batch vs per-view scoring (§3.1).

The View Processor promises "shared processing of view results"; this
benchmark measures exactly the stage the columnar rebuild vectorizes. One
500+-view workload runs through the full engine twice on the memory
backend — once with the per-view scoring loop, once with the dense
``score_batch`` path — and the recorded rows compare the Score-phase
wall-clock. Everything else is held fixed, and the run asserts the parts
that must not move: identical utilities bit-for-bit and an unchanged
backend query count.
"""

import dataclasses
import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.duckdb import duckdb_available
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining

#: Minimum Score-phase speedup the columnar path must show (the PR's
#: acceptance bar; measured batch/per-view on the 500+ view workload).
MIN_SPEEDUP = 3.0
REPETITIONS = 3


@pytest.fixture(scope="module")
def workload():
    """~510 candidate views: 10 dims x 10 measures x 5 functions + counts."""
    dataset = generate_synthetic(
        SyntheticConfig(
            n_rows=20_000, n_dimensions=10, n_measures=10, cardinality=24
        ),
        seed=77,
    )
    query = RowSelectQuery(dataset.table.name, dataset.predicate)
    return dataset, query


def _config(batch_scoring: bool) -> SeeDBConfig:
    return SeeDBConfig(
        aggregate_functions=("sum", "avg", "min", "max", "var"),
        batch_scoring=batch_scoring,
        # Score every enumerated view: this benchmark measures the Score
        # phase, not the pruning rules.
        prune_low_variance=False,
        prune_cardinality=False,
        prune_correlated=False,
        exclude_predicate_dimensions=False,
    )


def _run(dataset, query, batch_scoring: bool):
    """One fresh-backend recommendation; returns (result, queries_executed)."""
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    result = SeeDB(backend, _config(batch_scoring)).recommend(
        RecommendationRequest(query, k=10)
    )
    return result, backend.queries_executed


def test_batch_scoring_speedup(record_rows, workload):
    dataset, query = workload
    rows = []
    best = {}
    utilities = {}
    queries = {}
    for batch_scoring in (False, True):
        mode = "batch" if batch_scoring else "per_view"
        score_seconds = []
        for _ in range(REPETITIONS):
            result, executed = _run(dataset, query, batch_scoring)
            score_seconds.append(result.stopwatch.phases["score"])
        best[mode] = min(score_seconds)
        utilities[mode] = result.utilities
        queries[mode] = executed
        rows.append(
            {
                "mode": mode,
                "n_views_scored": len(result.utilities),
                "score_seconds": best[mode],
                "total_seconds": result.total_seconds,
                "queries_executed": executed,
            }
        )

    n_views = rows[0]["n_views_scored"]
    speedup = best["per_view"] / best["batch"]
    rows.append(
        {
            "mode": "speedup",
            "n_views_scored": n_views,
            "score_seconds": best["per_view"] - best["batch"],
            "speedup_x": round(speedup, 2),
        }
    )
    record_rows("scoring", rows)

    assert n_views >= 500, f"workload too small: {n_views} views"
    # The columnar path must not change what the DBMS sees or what the
    # analyst gets — only how fast the Score phase runs.
    assert queries["batch"] == queries["per_view"]
    assert utilities["batch"] == utilities["per_view"]  # bit-for-bit
    assert speedup >= MIN_SPEEDUP, (
        f"batch scoring only {speedup:.2f}x faster "
        f"({best['per_view']:.4f}s -> {best['batch']:.4f}s)"
    )


@pytest.mark.skipif(
    not duckdb_available(), reason="optional 'duckdb' wheel not installed"
)
def test_duckdb_backend_axis(record_rows, workload):
    """The DuckDB axis of the scoring benchmark: the same 500+-view
    workload on a real columnar engine, native shared scan vs the UNION
    ALL fallback for the identical plan. Emits ``BENCH_scoring_duckdb.json``
    and asserts the paper's headline effect — the native path issues
    strictly fewer logical queries for the same view space and identical
    recommendations."""
    from repro.backends.duckdb import DuckDbBackend

    dataset, query = workload
    rows = []
    utilities = {}
    queries = {}
    for mode, force_fallback in (("native_shared_scan", False),
                                 ("union_fallback", True)):
        backend = DuckDbBackend(force_union_fallback=force_fallback)
        try:
            backend.register_table(dataset.table)
            config = dataclasses.replace(
                _config(batch_scoring=True),
                groupby_combining=GroupByCombining.AUTO,
            )
            start = time.perf_counter()
            result = SeeDB(backend, config).recommend(
                RecommendationRequest(query, k=10)
            )
            total = time.perf_counter() - start
            utilities[mode] = result.utilities
            queries[mode] = backend.queries_executed
            rows.append(
                {
                    "mode": mode,
                    "n_views_scored": len(result.utilities),
                    "total_seconds": round(total, 4),
                    "queries_executed": backend.queries_executed,
                    "statements_executed": backend.statements_executed,
                }
            )
        finally:
            backend.close()
    rows.append(
        {
            "mode": "query_reduction",
            "queries_saved": queries["union_fallback"]
            - queries["native_shared_scan"],
        }
    )
    record_rows("scoring_duckdb", rows)

    # Same recommendations (to float tolerance — DuckDB's parallel hash
    # aggregation may combine float partials in either plan's order);
    # strictly fewer logical queries natively.
    native, fallback = utilities["native_shared_scan"], utilities["union_fallback"]
    assert set(native) == set(fallback)
    for label in native:
        assert native[label] == pytest.approx(fallback[label], rel=1e-9, abs=1e-12)
    assert queries["native_shared_scan"] < queries["union_fallback"]


def test_score_batch_microbench(benchmark, workload):
    """Direct View-Processor cost on the plan's view blocks (no engine)."""
    from repro.core.space import enumerate_views
    from repro.core.view_processor import ViewProcessor
    from repro.metrics.registry import get_metric
    from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup

    dataset, _query = workload
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    views = enumerate_views(
        dataset.table.schema, functions=("sum", "avg", "min", "max", "var")
    )
    grouped = {}
    for view in views:
        grouped.setdefault(view.dimension, []).append(view)
    plan = ExecutionPlan(
        [
            ExecutionStep(dataset.table.name, dataset.predicate,
                          (ViewGroup(dimension, tuple(members)),))
            for dimension, members in grouped.items()
        ]
    )
    blocks = plan.run(backend)
    processor = ViewProcessor(get_metric("js"))

    scored = benchmark(lambda: processor.score_blocks(blocks))
    assert len(scored) == sum(block.n_views for block in blocks)
