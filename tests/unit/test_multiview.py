"""Unit tests: the multi-attribute view extension (§2 generalization),
run as the ``multiview_phases`` preset through ``SeeDB.recommend``."""

import math

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core import MultiViewSpec, SeeDB, enumerate_multi_views
from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.query import AggregateQuery, RowSelectQuery
from repro.engine.multiview import multiview_phases
from repro.util.errors import ConfigError, QueryError

#: Sum views only: the options of a hand-checked multiview request.
SUMS_ONLY = {"aggregate_functions": ["sum"], "include_count_views": False}


def multiview(backend, request, n_dimensions=2):
    """The recommendations of ``request`` under the multiview preset."""
    with SeeDB(backend) as seedb:
        return seedb.recommend(
            request, phases=multiview_phases(n_dimensions)
        ).recommendations


class TestSpec:
    def test_label(self):
        spec = MultiViewSpec(("region", "month"), "amount", "sum")
        assert spec.label == "sum(amount) by (region, month)"

    def test_needs_two_dimensions(self):
        with pytest.raises(QueryError, match=">= 2"):
            MultiViewSpec(("region",), "amount", "sum")

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(QueryError, match="duplicate"):
            MultiViewSpec(("region", "region"), "amount", "sum")

    def test_count_without_measure(self):
        spec = MultiViewSpec(("a", "b"), None, "count")
        assert spec.aggregate.alias == "count(*)"

    def test_non_count_needs_measure(self):
        with pytest.raises(QueryError):
            MultiViewSpec(("a", "b"), None, "sum")

    def test_ordering(self):
        first = MultiViewSpec(("a", "b"), "m", "avg")
        second = MultiViewSpec(("a", "c"), "m", "avg")
        assert first < second


class TestEnumeration:
    def test_pair_combinations(self, sales_table):
        views = enumerate_multi_views(
            sales_table.schema, n_dimensions=2, functions=("sum",),
            include_count=False,
        )
        # C(3,2)=3 dimension pairs x 2 measures x 1 function.
        assert len(views) == 6
        dims = {view.dimensions for view in views}
        assert dims == {
            ("store", "product"),
            ("store", "month"),
            ("product", "month"),
        }

    def test_triples(self, sales_table):
        views = enumerate_multi_views(
            sales_table.schema, n_dimensions=3, functions=("sum",),
            include_count=True,
        )
        assert len(views) == 3  # 1 triple x (2 measures + count)

    def test_validation(self, sales_table):
        with pytest.raises(ConfigError):
            enumerate_multi_views(sales_table.schema, n_dimensions=1)


class TestRecommendation:
    def test_utilities_match_manual_computation(self, memory_backend, sales_table):
        """Cross-check one multi-view utility against a direct computation."""
        from repro.metrics.normalize import align_series, normalize_distribution
        from repro.metrics.registry import get_metric

        query = RowSelectQuery("sales", col("product") == "Laserwave")
        top = multiview(
            memory_backend,
            RecommendationRequest(query, k=10, metric="js", options=SUMS_ONLY),
        )
        # Manual: sum(amount) by (store, month) target vs comparison.
        target = memory_backend.execute(
            AggregateQuery(
                "sales", ("store", "month"), (Aggregate("sum", "amount"),),
                col("product") == "Laserwave",
            )
        )
        comparison = memory_backend.execute(
            AggregateQuery(
                "sales", ("store", "month"), (Aggregate("sum", "amount"),)
            )
        )
        t_keys = list(zip(target.column("store"), target.column("month")))
        t_keys = [(str(a), int(b)) for a, b in t_keys]
        c_keys = list(zip(comparison.column("store"), comparison.column("month")))
        c_keys = [(str(a), int(b)) for a, b in c_keys]
        _groups, t, c = align_series(
            t_keys, target.column("sum(amount)"), c_keys,
            comparison.column("sum(amount)"),
        )
        expected = get_metric("js").distance(
            normalize_distribution(t), normalize_distribution(c)
        )
        view = next(
            v for v in top
            if v.spec.dimensions == ("store", "month") and v.spec.func == "sum"
            and v.spec.measure == "amount"
        )
        assert view.utility == pytest.approx(expected, rel=1e-9)

    def test_predicate_dimensions_excluded(self, memory_backend):
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        top = multiview(memory_backend, RecommendationRequest(query, k=20))
        for view in top:
            assert "product" not in view.spec.dimensions

    def test_include_count_views_option_is_honoured(self, memory_backend):
        """Request options shape the multiview space, as they do the
        batch one."""
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        with_counts = multiview(memory_backend, RecommendationRequest(query, k=20))
        assert any(view.spec.func == "count" for view in with_counts)
        top = multiview(
            memory_backend,
            RecommendationRequest(
                query, k=20, options={"include_count_views": False}
            ),
        )
        assert top
        assert all(view.spec.func != "count" for view in top)

    def test_groups_are_tuples(self, memory_backend):
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        top = multiview(memory_backend, RecommendationRequest(query, k=1))
        assert top
        assert all(isinstance(group, tuple) for group in top[0].groups)

    def test_distributions_valid(self, memory_backend):
        query = RowSelectQuery("sales", col("amount") > 50)
        for view in multiview(memory_backend, RecommendationRequest(query, k=5)):
            assert view.target_distribution.sum() == pytest.approx(1.0)
            assert view.comparison_distribution.sum() == pytest.approx(1.0)
            assert math.isfinite(view.utility)

    def test_works_on_sqlite(self, sqlite_backend, memory_backend):
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        lite = multiview(sqlite_backend, RecommendationRequest(query, k=3))
        mem = multiview(memory_backend, RecommendationRequest(query, k=3))
        assert [v.spec for v in lite] == [v.spec for v in mem]
        for a, b in zip(lite, mem):
            assert a.utility == pytest.approx(b.utility, rel=1e-9)

    @pytest.mark.parametrize("backend_fixture", ["memory_backend", "sqlite_backend"])
    def test_query_reference_matches_manual_computation(
        self, backend_fixture, request
    ):
        """Query-vs-query runs as two tuple-keyed queries per combination."""
        from repro.api import Reference
        from repro.metrics.normalize import align_series, normalize_distribution
        from repro.metrics.registry import get_metric

        backend = request.getfixturevalue(backend_fixture)
        target_predicate = col("product") == "Laserwave"
        second_predicate = col("amount") < 150  # overlaps the target
        before = backend.queries_executed
        top = multiview(
            backend,
            RecommendationRequest(
                RowSelectQuery("sales", target_predicate),
                k=10,
                metric="js",
                reference=Reference.query(RowSelectQuery("sales", second_predicate)),
                options=SUMS_ONLY,
            ),
        )
        # (store, month) is the one combination the predicate leaves.
        assert backend.queries_executed - before == 2
        sides = []
        for predicate in (target_predicate, second_predicate):
            result = backend.execute(
                AggregateQuery(
                    "sales", ("store", "month"), (Aggregate("sum", "amount"),),
                    predicate,
                )
            )
            keys = [
                (str(a), int(b))
                for a, b in zip(result.column("store"), result.column("month"))
            ]
            sides.append((keys, result.column("sum(amount)")))
        _groups, t, c = align_series(*sides[0], *sides[1])
        expected = get_metric("js").distance(
            normalize_distribution(t), normalize_distribution(c)
        )
        view = next(
            v for v in top
            if v.spec.dimensions == ("store", "month") and v.spec.measure == "amount"
        )
        assert view.utility == pytest.approx(expected, rel=1e-9)

    def test_k_and_ties_deterministic(self, memory_backend):
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        first = multiview(memory_backend, RecommendationRequest(query, k=4))
        second = multiview(memory_backend, RecommendationRequest(query, k=4))
        assert [v.spec for v in first] == [v.spec for v in second]
