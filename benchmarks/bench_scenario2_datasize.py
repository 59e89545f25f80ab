"""E13: Scenario 2 knob — data size.

Latency of the basic framework vs optimized SeeDB as rows grow, recorded
per size. The asserted shape is deterministic: both configurations
recommend the same views, and the optimized one issues fewer queries at
every size — the scan counts that explain the latency gap.
"""

import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.basic import BasicFramework
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining

SIZES = (20_000, 50_000, 100_000, 200_000)

OPTIMIZED = SeeDBConfig(
    groupby_combining=GroupByCombining.GROUPING_SETS,
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
)


def make_workload(n_rows: int):
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=n_rows, n_dimensions=5, n_measures=2,
                        cardinality=16),
        seed=401,
    )
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    return backend, dataset


def test_latency_vs_datasize(benchmark, record_rows):
    rows = benchmark.pedantic(_datasize_sweep, rounds=1, iterations=1)
    record_rows("e13_datasize", rows)
    for row in rows:
        assert row["optimized_queries"] < row["basic_queries"], row


def _datasize_sweep():
    rows = []
    for n_rows in SIZES:
        backend, dataset = make_workload(n_rows)
        query = RowSelectQuery(dataset.table.name, dataset.predicate)

        basic = BasicFramework(backend)
        start = time.perf_counter()
        basic_result = basic.recommend(RecommendationRequest(query, k=5))
        basic_seconds = time.perf_counter() - start

        seedb = SeeDB(backend, OPTIMIZED)
        start = time.perf_counter()
        optimized_result = seedb.recommend(RecommendationRequest(query, k=5))
        optimized_seconds = time.perf_counter() - start

        rows.append(
            {
                "rows": n_rows,
                "basic_s": round(basic_seconds, 4),
                "optimized_s": round(optimized_seconds, 4),
                "speedup": round(basic_seconds / optimized_seconds, 2),
                "basic_queries": basic_result.n_queries,
                "optimized_queries": optimized_result.n_queries,
            }
        )
        # Same recommendations either way.
        assert [v.spec for v in basic_result.recommendations] == [
            v.spec for v in optimized_result.recommendations
        ]
    return rows


def test_optimized_latency_at_200k(benchmark):
    backend, dataset = make_workload(200_000)
    seedb = SeeDB(backend, OPTIMIZED)
    query = RowSelectQuery(dataset.table.name, dataset.predicate)
    benchmark.pedantic(
        lambda: seedb.recommend(RecommendationRequest(query, k=5)),
        rounds=3,
        iterations=1,
    )
