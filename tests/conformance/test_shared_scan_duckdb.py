"""DuckDB-only: the native shared-scan path against its own fallback.

The acceptance probe for the paper's headline optimization on a real
columnar engine: one DuckDB backend running native GROUPING SETS must
issue strictly fewer logical queries (and no more statements) than the
same backend forced onto the UNION ALL emulation, for the same view
space, while recommending identical views. Skips cleanly when the
optional wheel is missing.
"""

import numpy as np
import pytest

from conformance_kit import duckdb_available, medium_workload
from repro.api import RecommendationRequest
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.aggregates import Aggregate
from repro.db.query import GroupingSetsQuery
from repro.optimizer.plan import GroupByCombining

pytestmark = pytest.mark.skipif(
    not duckdb_available(), reason="optional 'duckdb' wheel not installed"
)


def make_backend(force_union_fallback: bool):
    from repro.backends.duckdb import DuckDbBackend

    return DuckDbBackend(force_union_fallback=force_union_fallback)


def run(force_union_fallback: bool):
    table, query = medium_workload()
    backend = make_backend(force_union_fallback)
    try:
        backend.register_table(table)
        config = SeeDBConfig(
            metric="js",
            aggregate_functions=("sum", "avg"),
            groupby_combining=GroupByCombining.AUTO,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
        )
        seedb = SeeDB(backend, config)
        result = seedb.recommend(RecommendationRequest(query, k=5))
        counters = (backend.queries_executed, backend.statements_executed)
        seedb.close()
        return result, counters
    finally:
        backend.close()


def test_native_shared_scan_issues_fewer_queries_than_union_fallback():
    native_result, (native_queries, native_statements) = run(False)
    fallback_result, (fallback_queries, fallback_statements) = run(True)

    # Same recommendations either way — sharing is a physical optimization
    # (float tolerance: parallel aggregation may combine partials in
    # either plan's order).
    assert [v.spec.label for v in native_result.recommendations] == [
        v.spec.label for v in fallback_result.recommendations
    ]
    np.testing.assert_allclose(
        [v.utility for v in native_result.recommendations],
        [v.utility for v in fallback_result.recommendations],
        rtol=1e-6,
    )

    # The point: native GROUPING SETS shares the scan *and* the logical
    # query; the emulation still evaluates one arm per grouping set.
    assert native_queries < fallback_queries
    assert native_statements <= fallback_statements


def test_native_grouping_sets_count_one_logical_query():
    backend = make_backend(False)
    try:
        table, _query = medium_workload()
        backend.register_table(table)
        backend.reset_counters()
        backend.execute_grouping_sets(
            GroupingSetsQuery(
                "orders",
                (("region",), ("product",), ("band",)),
                (Aggregate("sum", "amount"), Aggregate("count")),
            )
        )
        assert backend.queries_executed == 1
        assert backend.statements_executed == 1
    finally:
        backend.close()


def test_union_fallback_counts_one_logical_query_per_set():
    backend = make_backend(True)
    try:
        table, _query = medium_workload()
        backend.register_table(table)
        backend.reset_counters()
        backend.execute_grouping_sets(
            GroupingSetsQuery(
                "orders",
                (("region",), ("product",), ("band",)),
                (Aggregate("sum", "amount"), Aggregate("count")),
            )
        )
        assert backend.queries_executed == 3
        assert backend.statements_executed == 1
    finally:
        backend.close()
