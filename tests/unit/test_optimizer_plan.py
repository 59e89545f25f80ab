"""Unit tests: the planner, execution steps, extraction, and cost model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.backends.base import BackendCapabilities
from repro.db.expressions import RowPartition, col
from repro.db.query import AggregateQuery, GroupingSetsQuery
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.model.view import ViewSpec
from repro.optimizer.binpack import pack_dimensions
from repro.optimizer.cost import estimate_plan_cost
from repro.optimizer.combine import GroupState
from repro.optimizer.extract import FLAG_NAME
from repro.optimizer.plan import (
    PLAN_KINDS,
    ExecutionStep,
    GroupByCombining,
    Planner,
    PlannerConfig,
    ViewGroup,
)
from repro.util.errors import ConfigError
from tests.conftest import auto_plan_at_equal_prices

CAPS_GS = BackendCapabilities(grouping_sets=True)
CAPS_NO_GS = BackendCapabilities(grouping_sets=False)

VIEWS = [
    ViewSpec("store", "amount", "sum"),
    ViewSpec("store", "amount", "avg"),
    ViewSpec("product", "amount", "sum"),
    ViewSpec("month", None, "count"),
]
CARDINALITIES = {"store": 4, "product": 2, "month": 4}


def auto_plan(capabilities, views=VIEWS, cardinalities=CARDINALITIES):
    return auto_plan_at_equal_prices(views, "s", None, cardinalities, capabilities)


def plan_with(**config_overrides):
    config = PlannerConfig(**config_overrides)
    return Planner(config).plan(
        VIEWS, "sales", col("product") == "Laserwave", CARDINALITIES
    )


class TestViewGroup:
    def test_aux_aggregates_deduped(self):
        group = ViewGroup(
            "store",
            (ViewSpec("store", "amount", "sum"), ViewSpec("store", "amount", "avg")),
        )
        step = ExecutionStep("sales", None, (group,), combine_flag=True)
        aliases = [a.alias for a in step.aggregates()]
        assert aliases == ["sum(amount)", "countv(amount)"]

    def test_direct_aggregates(self):
        group = ViewGroup(
            "store",
            (ViewSpec("store", "amount", "sum"), ViewSpec("store", "amount", "avg")),
        )
        step = ExecutionStep("sales", None, (group,), combine_flag=False)
        assert [a.alias for a in step.aggregates()] == [
            "sum(amount)",
            "avg(amount)",
        ]

    def test_tuple_dimension_keys(self):
        view = ViewSpec(("store", "month"), "amount", "sum")
        assert ViewGroup(("store", "month"), (view,)).keys == ("store", "month")
        assert ViewGroup("store", (ViewSpec("store", None, "count"),)).keys == (
            "store",
        )
        with pytest.raises(ConfigError, match="does not group by"):
            ViewGroup(("month", "store"), (view,))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not group by"):
            ViewGroup("store", (ViewSpec("month", None, "count"),))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ViewGroup("store", ())


class TestPlannerShapes:
    def test_basic_no_combining(self):
        plan = plan_with(
            combine_target_comparison=False,
            combine_aggregates=False,
            groupby_combining=GroupByCombining.NONE,
        )
        assert all(
            s.sharing is GroupByCombining.NONE and not s.combine_flag
            for s in plan.steps
        )
        assert len(plan.steps) == len(VIEWS)  # one step per view
        assert plan.total_queries() == 2 * len(VIEWS)

    def test_flag_combining_halves_queries(self):
        plan = plan_with(
            combine_target_comparison=True,
            combine_aggregates=False,
            groupby_combining=GroupByCombining.NONE,
        )
        assert all(
            s.sharing is GroupByCombining.NONE and s.combine_flag
            for s in plan.steps
        )
        assert plan.total_queries() == len(VIEWS)

    def test_aggregate_combining_groups_by_dimension(self):
        plan = plan_with(
            combine_target_comparison=True,
            combine_aggregates=True,
            groupby_combining=GroupByCombining.NONE,
        )
        assert len(plan.steps) == 3  # store, product, month
        assert plan.total_queries() == 3

    def test_grouping_sets_single_query(self):
        plan = plan_with(
            combine_target_comparison=True,
            combine_aggregates=True,
            groupby_combining=GroupByCombining.GROUPING_SETS,
        )
        assert len(plan.steps) == 1
        assert plan.steps[0].sharing is GroupByCombining.GROUPING_SETS
        assert plan.total_queries() == 1

    def test_grouping_sets_without_flag_two_queries(self):
        plan = plan_with(
            combine_target_comparison=False,
            groupby_combining=GroupByCombining.GROUPING_SETS,
        )
        assert plan.total_queries() == 2

    def test_rollup_respects_budget(self):
        plan = plan_with(
            combine_target_comparison=True,
            groupby_combining=GroupByCombining.ROLLUP,
            memory_budget_cells=1000,
        )
        # All three dims (4*2*4=32 cells * 2 flag = 64) fit one rollup.
        assert len(plan.steps) == 1
        assert plan.steps[0].sharing is GroupByCombining.ROLLUP

    def test_rollup_splits_when_budget_tight(self):
        plan = plan_with(
            combine_target_comparison=True,
            groupby_combining=GroupByCombining.ROLLUP,
            memory_budget_cells=20,  # /2 for flag = 10 cells per query
        )
        # 4*2=8 fits; 4*4=16 does not; expect >= 2 steps.
        assert len(plan.steps) >= 2
        for step in plan.steps:
            if step.sharing is GroupByCombining.ROLLUP:
                product = 1
                for group in step.groups:
                    product *= CARDINALITIES[group.dimension]
                assert 2 * product <= 20

    def test_rollup_bins_are_packed_exactly(self):
        # Cells 8,8,4,4,4,4 under 128: first-fit-decreasing needs three
        # rollups ({8,8}, {4,4,4}, {4}); the exact solver finds two
        # ({8,4,4} twice), and the planner uses it at this size.
        cardinalities = {f"d{i}": c for i, c in enumerate((8, 8, 4, 4, 4, 4))}
        views = [ViewSpec(name, None, "count") for name in cardinalities]
        assert pack_dimensions(cardinalities, 128, exact_threshold=0).n_bins == 3
        config = PlannerConfig(
            combine_target_comparison=False,
            groupby_combining=GroupByCombining.ROLLUP,
            memory_budget_cells=128,
        )
        plan = Planner(config).plan(views, "s", None, cardinalities)
        assert len(plan.steps) == 2
        for step in plan.steps:
            cells = np.prod([cardinalities[g.dimension] for g in step.groups])
            assert cells <= 128

    def test_auto_ties_resolve_by_capability(self):
        """Priced alike, AUTO's candidates fall to the declared kind."""
        plan_gs = auto_plan(CAPS_GS)
        plan_rollup = auto_plan(CAPS_NO_GS)
        assert any(
            s.sharing is GroupByCombining.GROUPING_SETS for s in plan_gs.steps
        )
        assert all(
            s.sharing in (GroupByCombining.ROLLUP, GroupByCombining.NONE)
            and s.combine_flag
            for s in plan_rollup.steps
        )

    def test_max_dims_per_query_chunks(self):
        plan = plan_with(
            groupby_combining=GroupByCombining.GROUPING_SETS,
            max_dims_per_query=2,
        )
        assert len(plan.steps) == 2  # 3 dims in chunks of 2

    def test_unknown_cardinality_treated_oversized(self):
        views = [ViewSpec("mystery", "amount", "sum")] + VIEWS
        config = PlannerConfig(groupby_combining=GroupByCombining.ROLLUP)
        plan = Planner(config).plan(views, "s", None, CARDINALITIES)
        mystery_steps = [
            s for s in plan.steps
            if s.sharing is GroupByCombining.NONE
            and s.views[0].dimension == "mystery"
        ]
        assert len(mystery_steps) == 1

    @pytest.mark.parametrize("mode", list(PLAN_KINDS))
    def test_empty_views_empty_plan(self, mode):
        config = PlannerConfig(groupby_combining=mode)
        plan = Planner(config).plan([], "s", None, {})
        assert plan.steps == [] and plan.total_queries() == 0

    def test_auto_over_no_views_is_an_empty_plan(self):
        plan = auto_plan(CAPS_GS, views=[], cardinalities={})
        assert plan.steps == [] and plan.total_queries() == 0

    def test_plan_refuses_auto(self):
        """AUTO is a choice among priced candidates: ``choose_plan``'s."""
        config = PlannerConfig(groupby_combining=GroupByCombining.AUTO)
        with pytest.raises(ValueError, match="choose_plan"):
            Planner(config).plan(VIEWS, "s", None, CARDINALITIES)

    def test_candidate_kinds_lead_with_the_declared_one(self):
        from repro.optimizer.plan import candidate_kinds

        gs, rollup, none = (
            GroupByCombining.GROUPING_SETS,
            GroupByCombining.ROLLUP,
            GroupByCombining.NONE,
        )
        assert list(PLAN_KINDS) == [gs, rollup, none]
        assert candidate_kinds(GroupByCombining.AUTO, CAPS_GS) == [gs, rollup, none]
        assert candidate_kinds(GroupByCombining.AUTO, CAPS_NO_GS) == [
            rollup, gs, none,
        ]
        for pinned in PLAN_KINDS:
            assert candidate_kinds(pinned, CAPS_NO_GS) == [pinned]

    def test_describe_mentions_steps(self):
        plan = plan_with()
        description = plan.describe()
        assert "step" in description

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PlannerConfig(memory_budget_cells=1)
        with pytest.raises(ConfigError):
            PlannerConfig(max_dims_per_query=0)


#: The reference whose combined steps keep the flag query.
COMPLEMENT = ResolvedReference("complement", ~(col("x") == 1))


class TestStepQueries:
    def test_flag_step_query_shape(self):
        group = ViewGroup("store", (ViewSpec("store", "amount", "avg"),))
        step = ExecutionStep("sales", col("x") == 1, (group,), reference=COMPLEMENT)
        (query,) = step.queries()
        assert isinstance(query, AggregateQuery)
        assert query.predicate is None  # flag carries the predicate
        assert query.key_names == (FLAG_NAME, "store")
        aliases = [a.alias for a in query.aggregates]
        assert aliases == ["sum(amount)", "countv(amount)"]

    def test_table_step_issues_its_target_query(self):
        """Under the ``table`` reference a combined step issues the target
        query; the comparison side is the predicate-free query's, cached."""
        group = ViewGroup("store", (ViewSpec("store", "amount", "avg"),))
        step = ExecutionStep("sales", col("x") == 1, (group,))
        assert step.caches_comparison and not step.flag_combined
        (query,) = step.queries()
        assert query.predicate == col("x") == 1
        assert query.key_names == ("store",)
        comparison = step.comparison_query()
        assert comparison == replace(query, predicate=None)
        aliases = [a.alias for a in query.aggregates]
        assert aliases == ["sum(amount)", "countv(amount)"]

    def test_a_partitioned_table_step_is_flag_combined(self):
        group = ViewGroup("store", (ViewSpec("store", "amount", "sum"),))
        step = ExecutionStep(
            "sales", col("x") == 1, (group,), partition=RowPartition(0, 2)
        )
        assert step.flag_combined and step.merges_sides
        (query,) = step.queries()
        assert query.key_names == (FLAG_NAME, "store")

    def test_separate_step_queries(self):
        group = ViewGroup("store", (ViewSpec("store", "amount", "sum"),))
        step = ExecutionStep("sales", col("x") == 1, (group,), combine_flag=False)
        target, comparison = step.queries()
        assert target.predicate is not None
        assert comparison.predicate is None

    def test_describe_leads_with_the_plan_shape(self):
        groups = (
            ViewGroup("a", (ViewSpec("a", "m", "sum"),)),
            ViewGroup("b", (ViewSpec("b", "m", "sum"),)),
        )
        one = groups[:1]
        assert (
            ExecutionStep("t", None, one).describe()
            == "cached[a: 1 view(s), 1 query]"
        )
        assert (
            ExecutionStep("t", None, one, reference=COMPLEMENT).describe()
            == "flag[a: 1 view(s), 1 query]"
        )
        assert (
            ExecutionStep("t", None, one, combine_flag=False).describe()
            == "separate[a: 1 view(s), 2 queries]"
        )
        assert (
            ExecutionStep("t", None, groups, GroupByCombining.GROUPING_SETS).describe()
            == "grouping_sets[['a', 'b'], 1 query(ies)]"
        )
        assert (
            ExecutionStep(
                "t", None, groups, GroupByCombining.ROLLUP, combine_flag=False
            ).describe()
            == "rollup[['a', 'b'], 2 query(ies)]"
        )

    def test_step_shape_validated(self):
        groups = (
            ViewGroup("a", (ViewSpec("a", "m", "sum"),)),
            ViewGroup("b", (ViewSpec("b", "m", "sum"),)),
        )
        with pytest.raises(ConfigError, match="view group"):
            ExecutionStep("t", None, groups)  # NONE shares nothing
        with pytest.raises(ConfigError, match="view group"):
            ExecutionStep("t", None, (), GroupByCombining.ROLLUP)
        with pytest.raises(ConfigError, match="resolved"):
            ExecutionStep("t", None, groups, GroupByCombining.AUTO)

    def test_multidim_step_sets(self):
        groups = (
            ViewGroup("a", (ViewSpec("a", "m", "sum"),)),
            ViewGroup("b", (ViewSpec("b", "m", "sum"),)),
        )
        step = ExecutionStep(
            "t", None, groups, GroupByCombining.GROUPING_SETS, combine_flag=True
        )
        (query,) = step.queries()
        assert isinstance(query, GroupingSetsQuery)
        assert len(query.sets) == 2

    def test_rollup_step_group_by(self):
        groups = (
            ViewGroup("a", (ViewSpec("a", "m", "sum"),)),
            ViewGroup("b", (ViewSpec("b", "m", "avg"),)),
        )
        step = ExecutionStep(
            "t", col("x") == 1, groups, GroupByCombining.ROLLUP, combine_flag=True,
            reference=COMPLEMENT,
        )
        (query,) = step.queries()
        assert query.key_names == (FLAG_NAME, "a", "b")
        table_step = replace(step, reference=TABLE_REFERENCE)
        (query,) = table_step.queries()
        assert query.key_names == table_step.comparison_query().key_names == ("a", "b")


def fold_rollup(rollup, group, merged=True):
    """``rollup``'s rows folded onto ``group``'s keys, as a rollup step does."""
    state = GroupState(group, merged)
    state.fold(0, *state.read(rollup))
    return state


class TestMarginalize:
    """Folding a multi-dimensional rollup result onto one group's keys."""

    def test_marginalize_sums(self, memory_backend):
        from repro.db.aggregates import Aggregate

        rollup = memory_backend.execute(
            AggregateQuery(
                "sales",
                ("store", "product"),
                (Aggregate("sum", "amount"), Aggregate("countv", "amount")),
            )
        )
        group = ViewGroup(
            "store",
            (ViewSpec("store", "amount", "sum"), ViewSpec("store", "amount", "countv")),
        )
        marginal = fold_rollup(rollup, group).block(merge=False)
        direct = memory_backend.execute(
            AggregateQuery(
                "sales",
                ("store",),
                (Aggregate("sum", "amount"), Aggregate("countv", "amount")),
            )
        )
        assert marginal.n_groups == direct.num_rows
        assert marginal.groups == list(direct.column("store"))
        np.testing.assert_allclose(
            marginal.target[0],
            np.asarray(direct.column("sum(amount)"), dtype=float),
        )

    def test_marginalize_rejects_algebraic(self, memory_backend):
        from repro.db.aggregates import Aggregate
        from repro.util.errors import QueryError

        rollup = memory_backend.execute(
            AggregateQuery("sales", ("store", "product"), (Aggregate("avg", "amount"),))
        )
        group = ViewGroup("store", (ViewSpec("store", "amount", "avg"),))
        with pytest.raises(QueryError, match="not mergeable"):
            fold_rollup(rollup, group, merged=False)


class TestCostModel:
    def test_basic_vs_combined_scans(self):
        basic = Planner(
            PlannerConfig(
                combine_target_comparison=False,
                combine_aggregates=False,
                groupby_combining=GroupByCombining.NONE,
            )
        ).plan(VIEWS, "s", None, CARDINALITIES)
        combined = Planner(
            PlannerConfig(groupby_combining=GroupByCombining.GROUPING_SETS)
        ).plan(VIEWS, "s", None, CARDINALITIES)
        basic_cost = estimate_plan_cost(basic, 1000, CARDINALITIES, CAPS_GS)
        combined_cost = estimate_plan_cost(combined, 1000, CARDINALITIES, CAPS_GS)
        assert basic_cost.n_scans == 8
        assert combined_cost.n_scans == 1
        assert combined_cost.rows_scanned < basic_cost.rows_scanned

    def test_grouping_sets_fallback_scans(self):
        plan = Planner(
            PlannerConfig(groupby_combining=GroupByCombining.GROUPING_SETS)
        ).plan(VIEWS, "s", None, CARDINALITIES)
        cost_native = estimate_plan_cost(plan, 1000, CARDINALITIES, CAPS_GS)
        cost_fallback = estimate_plan_cost(plan, 1000, CARDINALITIES, CAPS_NO_GS)
        assert cost_fallback.n_scans > cost_native.n_scans

    def test_result_groups_flag_doubling(self):
        views = [ViewSpec("store", "amount", "sum")]
        planner = Planner(PlannerConfig(groupby_combining=GroupByCombining.NONE))
        flag_plan = planner.plan(views, "s", col("x") == 1, CARDINALITIES, COMPLEMENT)
        cost = estimate_plan_cost(flag_plan, 100, CARDINALITIES, CAPS_GS)
        assert cost.result_groups == 8  # 4 stores x 2 flag values
        # The table reference's target query has no flag; its cached
        # comparison side is priced at zero.
        table_plan = planner.plan(views, "s", col("x") == 1, CARDINALITIES)
        cost = estimate_plan_cost(table_plan, 100, CARDINALITIES, CAPS_GS)
        assert cost.result_groups == 4 and cost.n_queries == 1
