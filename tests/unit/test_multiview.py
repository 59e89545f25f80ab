"""Unit tests: the multi-attribute view extension (§2 generalization),
run as ``SeeDBConfig(n_dimensions=n)`` through ``SeeDB.recommend``."""

import json
import math
import pickle

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.api.wire import view_to_json
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core import SeeDB, SeeDBConfig, ViewSpec, enumerate_views
from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.query import AggregateQuery, RowSelectQuery
from repro.model.view import ScoredView
from repro.util.errors import ConfigError, QueryError, SchemaError

#: Sum views only: the options of a hand-checked multiview request.
SUMS_ONLY = {"aggregate_functions": ["sum"], "include_count_views": False}


def multiview_result(backend, request, n_dimensions=2, **config):
    """The result of ``request`` over ``n_dimensions``-attribute views.

    The sales table's store and month are one-to-one, so the correlation
    rule prunes every view grouping by both; it is off unless asked for.
    """
    config.setdefault("prune_correlated", False)
    with SeeDB(backend, SeeDBConfig(n_dimensions=n_dimensions, **config)) as seedb:
        return seedb.recommend(request)


def multiview(backend, request, n_dimensions=2):
    """The recommendations of ``request`` over multi-attribute views."""
    return multiview_result(backend, request, n_dimensions).recommendations


class TestSpec:
    """A multi-attribute view is a ``ViewSpec`` whose dimension is a tuple."""

    def test_label(self):
        spec = ViewSpec(("region", "month"), "amount", "sum")
        assert spec.label == "sum(amount) by (region, month)"
        assert ViewSpec("region", "amount", "sum").label == "sum(amount) by region"

    def test_keys(self):
        assert ViewSpec(("region", "month"), None, "count").keys == (
            "region",
            "month",
        )
        assert ViewSpec("region", None, "count").keys == ("region",)

    def test_needs_two_dimensions(self):
        with pytest.raises(QueryError, match=">= 2"):
            ViewSpec(("region",), "amount", "sum")

    def test_duplicate_dimensions_rejected(self):
        with pytest.raises(QueryError, match="duplicate"):
            ViewSpec(("region", "region"), "amount", "sum")

    def test_count_without_measure(self):
        spec = ViewSpec(("a", "b"), None, "count")
        assert spec.aggregate.alias == "count(*)"

    def test_non_count_needs_measure(self):
        with pytest.raises(QueryError):
            ViewSpec(("a", "b"), None, "sum")

    def test_ordering(self):
        first = ViewSpec(("a", "b"), "m", "avg")
        second = ViewSpec(("a", "c"), "m", "avg")
        assert first < second
        assert sorted([second, first]) == [first, second]

    def test_pickle_round_trip(self):
        spec = ViewSpec(("a", "b"), None, "count")
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.keys == ("a", "b")

    def test_queries_group_by_every_key(self):
        spec = ViewSpec(("store", "month"), "amount", "sum")
        assert spec.target_query("sales", None).group_by == ("store", "month")
        assert spec.comparison_query("sales").group_by == ("store", "month")

    def test_validate_against_checks_every_key(self, sales_table):
        ViewSpec(("store", "month"), "amount", "sum").validate_against(
            sales_table.schema
        )
        with pytest.raises(SchemaError):
            ViewSpec(("store", "amount"), "amount", "sum").validate_against(
                sales_table.schema
            )


class TestEnumeration:
    def test_pair_combinations(self, sales_table):
        views = enumerate_views(
            sales_table.schema, functions=("sum",), include_count=False,
            n_dimensions=2,
        )
        # C(3,2)=3 dimension pairs x 2 measures x 1 function.
        assert len(views) == 6
        dims = {view.dimension for view in views}
        assert dims == {
            ("store", "product"),
            ("store", "month"),
            ("product", "month"),
        }

    def test_triples(self, sales_table):
        views = enumerate_views(
            sales_table.schema, functions=("sum",), include_count=True,
            n_dimensions=3,
        )
        assert len(views) == 3  # 1 triple x (2 measures + count)

    def test_one_dimension_is_the_default_space(self, sales_table):
        assert enumerate_views(sales_table.schema, n_dimensions=1) == (
            enumerate_views(sales_table.schema)
        )

    def test_validation(self, sales_table):
        with pytest.raises(ConfigError):
            enumerate_views(sales_table.schema, n_dimensions=0)


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
            if v.spec.dimension == ("store", "month") and v.spec.func == "sum"
            and v.spec.measure == "amount"
        )
        assert view.utility == pytest.approx(expected, rel=1e-9)

    def test_predicate_dimensions_excluded(self, memory_backend):
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        top = multiview(memory_backend, RecommendationRequest(query, k=20))
        for view in top:
            assert "product" not in view.spec.keys

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
        outcome = multiview_result(
            backend,
            RecommendationRequest(
                RowSelectQuery("sales", target_predicate),
                k=10,
                metric="js",
                reference=Reference.query(RowSelectQuery("sales", second_predicate)),
                options=SUMS_ONLY,
            ),
        )
        top = outcome.recommendations
        # (store, month) is the one combination the predicate leaves; the
        # metadata fetch is not a view query.
        assert outcome.n_queries == 2
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
            if v.spec.dimension == ("store", "month") and v.spec.measure == "amount"
        )
        assert view.utility == pytest.approx(expected, rel=1e-9)

    def test_k_and_ties_deterministic(self, memory_backend):
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        first = multiview(memory_backend, RecommendationRequest(query, k=4))
        second = multiview(memory_backend, RecommendationRequest(query, k=4))
        assert [v.spec for v in first] == [v.spec for v in second]


@pytest.mark.parametrize("backend_fixture", ["memory_backend", "sqlite_backend"])
class TestPruneAndFilter:
    """The preset prunes and filters through the shared Enumerate/Prune
    phases, so the request and config knobs behave as they do for
    single-attribute views."""

    def test_exclude_predicate_dimensions_off_keeps_constrained_views(
        self, backend_fixture, request
    ):
        backend = request.getfixturevalue(backend_fixture)
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        pruned = multiview_result(backend, RecommendationRequest(query, k=20))
        kept = multiview_result(
            backend,
            RecommendationRequest(
                query, k=20, options={"exclude_predicate_dimensions": False}
            ),
        )
        assert not any("product" in spec.keys for spec in pruned.utilities)
        assert {spec.dimension for spec in kept.utilities} == {
            ("store", "product"),
            ("store", "month"),
            ("product", "month"),
        }
        assert kept.pruned_views() == []
        assert kept.n_executed_views == kept.n_candidate_views == 15

    def test_prune_reason_reads_like_single_attribute(
        self, backend_fixture, request
    ):
        backend = request.getfixturevalue(backend_fixture)
        query = RowSelectQuery("sales", col("product") == "Laserwave")
        result = multiview_result(backend, RecommendationRequest(query, k=3))
        pruned = result.pruned_views()
        assert {spec.dimension for spec, _reason in pruned} == {
            ("store", "product"),
            ("product", "month"),
        }
        reason = (
            "dimension 'product' is constrained by the analyst's predicate "
            "(trivially deviating)"
        )
        assert {reason_text for _spec, reason_text in pruned} == {reason}
        with SeeDB(backend) as seedb:
            single = seedb.recommend(RecommendationRequest(query, k=3))
        assert reason in {reason_text for _spec, reason_text in single.pruned_views()}

    def test_no_predicate_carries_an_empty_report(self, backend_fixture, request):
        backend = request.getfixturevalue(backend_fixture)
        result = multiview_result(
            backend, RecommendationRequest(RowSelectQuery("sales"), k=3)
        )
        assert [(r.rule, r.examined, r.n_pruned) for r in result.prune_reports] == [
            ("predicate_dimensions", 15, 0),
            ("variance", 15, 0),
            ("cardinality", 15, 0),
        ]

    def test_dimensions_filter(self, backend_fixture, request):
        """A combination survives when every one of its keys is allowed;
        combinations keep schema order and unknown names are ignored."""
        backend = request.getfixturevalue(backend_fixture)
        query = RowSelectQuery("sales", col("amount") > 50)
        result = multiview_result(
            backend,
            RecommendationRequest(
                query, k=20, dimensions=["month", "nowhere", "store"]
            ),
        )
        assert {spec.dimension for spec in result.utilities} == {
            ("store", "month")
        }
        assert result.n_candidate_views == 5  # count + 2 measures x 2 functions
        unfiltered = multiview_result(backend, RecommendationRequest(query, k=20))
        for spec, utility in result.utilities.items():
            assert utility == unfiltered.utilities[spec]


class TestConfig:
    """The width lives in ``SeeDBConfig.n_dimensions``, off the wire."""

    def test_validation(self):
        assert SeeDBConfig().n_dimensions == 1
        with pytest.raises(ConfigError, match="n_dimensions"):
            SeeDBConfig(n_dimensions=0)

    def test_not_a_request_option(self):
        from repro.api import ApiError

        with pytest.raises(ApiError) as raised:
            RecommendationRequest(
                RowSelectQuery("sales"), options={"n_dimensions": 2}
            )
        assert raised.value.code == "unknown_field"


@pytest.mark.parametrize("backend_type", [MemoryBackend, SqliteBackend])
class TestPruningRules:
    """The pruning rules read a view's key set, so multi-attribute views
    are pruned (and then sampled and priced) like single-attribute ones."""

    def test_store_orders_pairs_are_pruned_and_priced(self, backend_type):
        """Regression: the statistics rules read ``view.dimension`` as one
        column and raised ``KeyError: ('order_date', 'ship_mode')``."""
        from repro.datasets.registry import load_dataset

        backend = backend_type()
        try:
            backend.register_table(load_dataset("store_orders"))
            result = multiview_result(
                backend,
                RecommendationRequest.from_sql(
                    "SELECT * FROM store_orders WHERE region = 'West'", k=3
                ),
                prune_correlated=True,
            )
        finally:
            backend.close()
        assert [
            (report.rule, report.examined, report.n_pruned)
            for report in result.prune_reports
        ] == [
            ("predicate_dimensions", 189, 54),
            ("variance", 135, 0),
            ("cardinality", 135, 45),
            ("correlation", 90, 36),
        ]
        assert result.n_executed_views == 54
        assert result.plan_decision is not None
        assert len(result.recommendations) == 3

    def test_correlated_keys_prune_the_view(self, backend_type, sales_table):
        """store and month are one-to-one: a view keyed by both is pruned
        for the key that does not represent their cluster."""
        backend = backend_type()
        try:
            backend.register_table(sales_table)
            result = multiview_result(
                backend,
                RecommendationRequest(RowSelectQuery("sales"), k=3),
                prune_correlated=True,
            )
        finally:
            backend.close()
        (report,) = [r for r in result.prune_reports if r.rule == "correlation"]
        assert {spec.dimension for spec, _reason in report.pruned} == {
            ("store", "product"),
            ("store", "month"),
        }
        assert {reason for _spec, reason in report.pruned} == {
            "dimension 'store' is correlated with 'month' (association >= 0.9); "
            "the representative view covers it"
        }
        assert {spec.dimension for spec in result.utilities} == {
            ("product", "month")
        }


class TestWire:
    """``view_to_json``: a single-attribute view's dimension is a string,
    a multi-attribute view's the list of its keys."""

    def scored(self, spec, groups):
        return ScoredView(
            spec=spec,
            utility=0.5,
            groups=groups,
            target_distribution=np.array([1.0, 0.0]),
            comparison_distribution=np.array([0.5, 0.5]),
        )

    def test_single_attribute(self):
        payload = view_to_json(
            self.scored(ViewSpec("store", "amount", "sum"), ["a", "b"])
        )
        assert payload["dimension"] == "store"
        assert payload["label"] == "sum(amount) by store"
        assert payload["groups"] == ["a", "b"]

    def test_multi_attribute(self):
        payload = view_to_json(
            self.scored(
                ViewSpec(("store", "month"), None, "count"), [("a", 1), ("b", 2)]
            )
        )
        assert payload["dimension"] == ["store", "month"]
        assert payload["label"] == "count(*) by (store, month)"
        assert payload["measure"] is None and payload["func"] == "count"
        assert json.loads(json.dumps(payload)) == payload
