"""E13: Scenario 2 knob — data size.

Latency of the basic framework vs optimized SeeDB as rows grow. The shape
the demo showcases: both grow roughly linearly in rows, the optimized
configuration stays well below the baseline, and the gap is explained by
the deterministic scan counts recorded alongside.
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
    # Shape: the optimized configuration has fixed planning/merging
    # overheads, so there is a crossover — it must win clearly at scale
    # and its advantage must grow with the data size. (Threshold 1.25
    # rather than the ~1.8 typically measured: 2-core CI containers under
    # concurrent load compress wall-clock ratios.)
    speedups = [row["speedup"] for row in rows]
    assert speedups[-1] > 1.25, rows
    assert speedups[-1] > speedups[0], rows
    for row in rows:
        if row["rows"] >= 100_000:
            assert row["optimized_s"] < row["basic_s"], row


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
