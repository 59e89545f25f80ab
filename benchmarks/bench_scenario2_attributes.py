"""E14: Scenario 2 knob — number of attributes.

The view space grows quadratically in attributes (E6), so latency grows
superlinearly for the basic framework; aggregate+group-by combining makes
the optimized configuration grow with the number of *dimensions* (queries)
rather than views.
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

ATTRIBUTE_COUNTS = (4, 8, 16, 24)

OPTIMIZED = SeeDBConfig(
    groupby_combining=GroupByCombining.GROUPING_SETS,
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
)


def make_workload(n_attributes: int):
    dataset = generate_synthetic(
        SyntheticConfig(
            n_rows=30_000,
            n_dimensions=n_attributes // 2,
            n_measures=n_attributes - n_attributes // 2,
            cardinality=10,
        ),
        seed=402,
    )
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    return backend, dataset


def test_latency_vs_attributes(benchmark, record_rows):
    rows = benchmark.pedantic(_attribute_sweep, rounds=1, iterations=1)
    record_rows("e14_attributes", rows)
    views = [row["views"] for row in rows]
    # Quadratic-ish view growth: 6x attributes -> far more than 6x views.
    assert views[-1] > 6 * views[0]
    # Optimized query count tracks dimensions (1-2 GS queries), basic 2x views.
    assert rows[-1]["optimized_queries"] <= 4
    assert rows[-1]["basic_queries"] == 2 * rows[-1]["views"]


def _attribute_sweep():
    rows = []
    for n_attributes in ATTRIBUTE_COUNTS:
        backend, dataset = make_workload(n_attributes)
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
                "attributes": n_attributes,
                "views": basic_result.n_executed_views,
                "basic_s": round(basic_seconds, 4),
                "optimized_s": round(optimized_seconds, 4),
                "basic_queries": basic_result.n_queries,
                "optimized_queries": optimized_result.n_queries,
            }
        )
    return rows


def test_optimized_latency_at_24_attributes(benchmark):
    backend, dataset = make_workload(24)
    seedb = SeeDB(backend, OPTIMIZED)
    query = RowSelectQuery(dataset.table.name, dataset.predicate)
    benchmark.pedantic(
        lambda: seedb.recommend(RecommendationRequest(query, k=5)),
        rounds=3,
        iterations=1,
    )
