"""E9: combining multiple group-bys (§3.3, optimization 3).

Three strategies over the same 8-dimension workload: no combining (one
query per dimension), shared-scan GROUPING SETS, and bin-packed rollup
queries with post-hoc marginalization. Scan counts fall from 8 to 1 to
#bins; results are identical by the equivalence tests. Wall-clock and scan
accounting are recorded per strategy.
"""

import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining

NO_PRUNING = dict(
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
)


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=100_000, n_dimensions=8, n_measures=2,
                        cardinality=12),
        seed=31,
    )
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    return backend, dataset


def run_mode(backend, dataset, mode, budget=100_000):
    """One warm request: an untimed first one caches the comparison sides
    of its plan, so the counted run issues the target queries alone."""
    config = SeeDBConfig(
        groupby_combining=mode, memory_budget_cells=budget, **NO_PRUNING
    )
    seedb = SeeDB(backend, config)
    query = RowSelectQuery(dataset.table.name, dataset.predicate)
    seedb.recommend(RecommendationRequest(query, k=5))
    backend.engine.stats.reset()
    start = time.perf_counter()
    result = seedb.recommend(RecommendationRequest(query, k=5))
    elapsed = time.perf_counter() - start
    return result, elapsed, backend.engine.stats.snapshot()


def test_groupby_combining_strategies(benchmark, record_rows, workload):
    backend, dataset = workload

    def sweep():
        rows = []
        reference_top = None
        for label, mode in (
            ("none", GroupByCombining.NONE),
            ("grouping_sets", GroupByCombining.GROUPING_SETS),
            ("rollup", GroupByCombining.ROLLUP),
        ):
            result, elapsed, stats = run_mode(backend, dataset, mode)
            rows.append(
                {
                    "strategy": label,
                    "queries": result.n_queries,
                    "view_query_scans": stats.table_scans,
                    "latency_s": round(elapsed, 4),
                }
            )
            top = [v.spec for v in result.recommendations]
            if reference_top is None:
                reference_top = top
            else:
                assert top == reference_top  # strategies agree on the answer
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("e9_combine_groupbys", rows)
    by_strategy = {row["strategy"]: row for row in rows}
    assert by_strategy["grouping_sets"]["queries"] == 1
    assert by_strategy["none"]["queries"] == 8
    assert (
        by_strategy["rollup"]["queries"] < by_strategy["none"]["queries"]
    )


def test_memory_budget_controls_rollup_width(benchmark, record_rows, workload):
    """The working-memory knob: tighter budgets -> more rollup queries."""
    backend, dataset = workload

    def sweep():
        rows = []
        for budget in (100, 2_000, 50_000, 1_000_000):
            result, elapsed, _stats = run_mode(
                backend, dataset, GroupByCombining.ROLLUP, budget=budget
            )
            rows.append(
                {
                    "budget_cells": budget,
                    "queries": result.n_queries,
                    "latency_s": round(elapsed, 4),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("e9_rollup_budget", rows)
    queries = [row["queries"] for row in rows]
    assert queries == sorted(queries, reverse=True)  # monotone non-increasing


def test_grouping_sets_latency(benchmark, workload):
    backend, dataset = workload
    benchmark.pedantic(
        lambda: run_mode(backend, dataset, GroupByCombining.GROUPING_SETS),
        rounds=3,
        iterations=1,
    )
