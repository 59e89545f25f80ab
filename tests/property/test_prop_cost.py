"""Property tests: the plan cost estimator orders work sensibly.

The cost model never has to be *accurate* to be useful — the planner only
compares candidates — but it must be *monotone* in the things that make
plans expensive: more rows never gets cheaper, native grouping sets never
cost more than their UNION ALL emulation, and smaller sampling fractions
never scan more. These are the invariants the argmin choice leans on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import BackendCapabilities
from repro.model.view import ViewSpec
from repro.model.reference import TABLE_REFERENCE
from repro.optimizer.cost import (
    DEFAULT_COEFFICIENTS,
    SEEDED_COEFFICIENTS,
    CostCoefficients,
    PlanCost,
    choose_sample_fraction,
    coefficients_for,
    estimate_bin_costs,
    estimate_plan_cost,
    hoeffding_epsilon,
)
from repro.optimizer.plan import (
    PLAN_KINDS,
    ExecutionPlan,
    GroupByCombining,
    Planner,
    PlannerConfig,
)

DIMS = ("d0", "d1", "d2", "d3", "d4")

NATIVE = BackendCapabilities(grouping_sets=True)
EMULATED = BackendCapabilities(grouping_sets=False)

#: Every coefficient set a plan can be priced with.
ALL_COEFFICIENTS = (DEFAULT_COEFFICIENTS, *SEEDED_COEFFICIENTS.values())


@st.composite
def plan_inputs(draw):
    """Random view set + cardinalities + a combining mode to plan with."""
    dims = draw(st.lists(st.sampled_from(DIMS), min_size=1, max_size=5, unique=True))
    views = []
    for dim in dims:
        for func in draw(
            st.lists(st.sampled_from(["sum", "avg"]), min_size=1, max_size=2, unique=True)
        ):
            views.append(ViewSpec(dim, "m", func))
    cardinalities = {
        dim: draw(st.integers(min_value=2, max_value=200)) for dim in DIMS
    }
    mode = draw(
        st.sampled_from(
            [
                GroupByCombining.NONE,
                GroupByCombining.GROUPING_SETS,
                GroupByCombining.ROLLUP,
            ]
        )
    )
    return views, cardinalities, mode


def build_plan(views, cardinalities, mode, table="t"):
    return Planner(PlannerConfig(groupby_combining=mode)).plan(
        views, table, None, cardinalities
    )


@settings(max_examples=60, deadline=None)
@given(inputs=plan_inputs(), rows=st.integers(1, 10**6), extra=st.integers(1, 10**6))
def test_more_rows_never_cheaper(inputs, rows, extra):
    """Scan-bound monotonicity: growing the table never lowers the cost."""
    views, cardinalities, mode = inputs
    plan = build_plan(views, cardinalities, mode)
    small = estimate_plan_cost(plan, rows, cardinalities, NATIVE)
    large = estimate_plan_cost(plan, rows + extra, cardinalities, NATIVE)
    assert large.rows_scanned >= small.rows_scanned
    for coefficients in ALL_COEFFICIENTS:
        assert coefficients.predict_seconds(large) >= coefficients.predict_seconds(
            small
        )


@settings(max_examples=60, deadline=None)
@given(inputs=plan_inputs(), rows=st.integers(1, 10**6))
def test_native_grouping_sets_never_dearer_than_fanout(inputs, rows):
    """The same grouping-sets plan costs no more with native support:
    the UNION ALL emulation re-scans the base table once per set."""
    views, cardinalities, _ = inputs
    plan = build_plan(views, cardinalities, GroupByCombining.GROUPING_SETS)
    native = estimate_plan_cost(plan, rows, cardinalities, NATIVE)
    fanout = estimate_plan_cost(plan, rows, cardinalities, EMULATED)
    assert native.n_queries <= fanout.n_queries
    assert native.n_scans <= fanout.n_scans
    assert native.rows_scanned <= fanout.rows_scanned
    assert native.n_statements == fanout.n_statements  # one UNION ALL batch
    for coefficients in ALL_COEFFICIENTS:
        assert coefficients.predict_seconds(native) <= coefficients.predict_seconds(
            fanout
        )


@settings(max_examples=60, deadline=None)
@given(
    inputs=plan_inputs(),
    rows=st.integers(100, 10**6),
    fractions=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
)
def test_smaller_sample_fraction_never_scans_more(inputs, rows, fractions):
    views, cardinalities, mode = inputs
    lo, hi = min(fractions), max(fractions)
    plan = build_plan(views, cardinalities, mode, table="t__seedb_sample_500000_7")
    small = estimate_plan_cost(plan, rows, cardinalities, NATIVE, sample_fraction=lo)
    large = estimate_plan_cost(plan, rows, cardinalities, NATIVE, sample_fraction=hi)
    assert small.rows_scanned <= large.rows_scanned
    assert small.n_queries == large.n_queries  # sampling changes rows, not shape


@settings(max_examples=60, deadline=None)
@given(inputs=plan_inputs(), rows=st.integers(1, 10**6))
def test_a_full_sample_prices_the_whole_table(inputs, rows):
    """``sample_fraction=1.0`` and no sampling price the same work."""
    views, cardinalities, mode = inputs
    plan = build_plan(views, cardinalities, mode)
    exact = estimate_plan_cost(plan, rows, cardinalities, NATIVE)
    full = estimate_plan_cost(plan, rows, cardinalities, NATIVE, sample_fraction=1.0)
    assert full == exact


@settings(max_examples=60, deadline=None)
@given(
    inputs=plan_inputs(),
    rows=st.integers(1, 10**6),
    native=st.booleans(),
    combine_flag=st.booleans(),
    per_view=st.booleans(),
)
def test_bins_price_as_their_built_steps(inputs, rows, native, combine_flag, per_view):
    """Pricing a candidate from its bins is pricing the steps built from
    them: candidates are compared without building their queries."""
    views, cardinalities, mode = inputs
    capabilities = NATIVE if native else EMULATED
    planner = Planner(PlannerConfig(groupby_combining=mode))
    groups = planner.group_views(views, per_view and mode is GroupByCombining.NONE)
    bins = PLAN_KINDS[mode].arrange(groups, planner.config, cardinalities, combine_flag)
    plan = planner.build(bins, mode, "t", None, combine_flag, TABLE_REFERENCE)
    costs = estimate_bin_costs(bins, mode, combine_flag, rows, cardinalities, capabilities)
    assert costs == [
        estimate_plan_cost(ExecutionPlan([step]), rows, cardinalities, capabilities)
        for step in plan.steps
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**8))
def test_hoeffding_epsilon_shrinks_with_n(n):
    assert hoeffding_epsilon(2 * n) < hoeffding_epsilon(n)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 10**8), epsilon=st.floats(1e-4, 1.0))
def test_chosen_fraction_meets_epsilon_budget(rows, epsilon):
    fraction = choose_sample_fraction(rows, epsilon)
    if fraction is not None:
        assert hoeffding_epsilon(int(rows * fraction)) <= epsilon


def test_predict_is_linear_in_work_units():
    coefficients = CostCoefficients(1.0, 10.0, 100.0, 1000.0, 10000.0)
    cost = PlanCost(
        n_queries=2,
        n_scans=3,
        rows_scanned=5,
        result_groups=7,
        n_statements=11,
        aggregate_work=13,
    )
    assert coefficients.predict_seconds(cost) == (
        5 * 1.0 + 7 * 10.0 + 2 * 100.0 + 11 * 1000.0 + 13 * 10000.0
    )


def test_every_backend_has_seeds():
    assert set(SEEDED_COEFFICIENTS) >= {"memory", "sqlite", "duckdb"}


@pytest.mark.parametrize("backend_name", ["memory", "sqlite", "duckdb"])
def test_coefficients_for_returns_the_backend_seed(backend_name):
    assert coefficients_for(backend_name) is SEEDED_COEFFICIENTS[backend_name]


def test_unknown_backend_is_priced_with_the_default():
    assert coefficients_for("no-such-backend") is DEFAULT_COEFFICIENTS
