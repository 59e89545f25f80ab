"""Property tests: every plan shape hands the scorer identical view data.

The optimizer's central contract — combining strategies change *work*, not
*answers* — verified on randomized tables (random group structures, a string
dimension carrying both NULL and the string ``'None'``, a FLOAT dimension
carrying NaN, NaN measures, random predicates) over the whole
step grid: sharing × sides × reference × single-/multi-attribute
dimension × backend, each cell against the all-separate baseline (one
unshared two-query step per view) on the same backend — and, along the
partition axis, against itself run one row partition at a time and folded
the way phased execution folds its rounds. The duckdb cells skip when the
optional wheel is absent.

A second test covers the planner's side of the contract: every bin list
``AUTO`` can arrange — grouping-set chunks, rollups at each budget of the
ladder, one scan per dimension — under any statistics it may be handed,
ranks the views as one scan per dimension does on memory and sqlite.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.duckdb import DuckDbBackend
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.db.expressions import RowPartition, col
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.metrics.normalize import canonical_key
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.model.view import ViewSpec
from repro.core.topk import top_k_views
from repro.core.view_processor import ViewProcessor
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.optimizer.plan import (
    PLAN_KINDS,
    ExecutionPlan,
    ExecutionStep,
    GroupByCombining,
    Planner,
    PlannerConfig,
    ViewGroup,
)

from tests.conftest import assert_same_views, view_rows

FUNCS = ["sum", "avg", "min", "max", "count", "var"]
D2_VALUES = ["x", "y", "z", "w"]
BACKENDS = {"duckdb": DuckDbBackend, "memory": MemoryBackend, "sqlite": SqliteBackend}
SHARINGS = [
    GroupByCombining.NONE,
    GroupByCombining.GROUPING_SETS,
    GroupByCombining.ROLLUP,
]
#: One 0/1 flag cannot partition a query reference's two selections, so the
#: planner never combines sides for it; every other pairing is a real cell.
GRID = [
    cell
    for cell in itertools.product(
        SHARINGS,
        [True, False],
        ["table", "complement", "query"],
        ["name", "tuple"],
        sorted(BACKENDS),
    )
    if not (cell[1] and cell[2] == "query")
]


@st.composite
def workloads(draw):
    n_rows = draw(st.integers(2, 60))

    def column(values):
        # Row 0 pins a string, so type inference never sees an all-NULL column.
        rest = st.lists(st.sampled_from(values), min_size=n_rows - 1, max_size=n_rows - 1)
        return [values[0]] + draw(rest)

    finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    measure = st.one_of(finite, st.just(float("nan")))
    table = Table.from_columns(
        "t",
        {
            "d1": column(["a", "b", "c", None, "None"]),
            "d2": column(D2_VALUES),
            "d3": column(["p", "q"]),
            "f": column([0.5, 1.5, float("nan")]),
            "m": draw(st.lists(measure, min_size=n_rows, max_size=n_rows)),
        },
        roles={
            "d1": AttributeRole.DIMENSION,
            "d2": AttributeRole.DIMENSION,
            "d3": AttributeRole.DIMENSION,
            "f": AttributeRole.DIMENSION,
            "m": AttributeRole.MEASURE,
        },
    )
    target_value, other_value = draw(
        st.lists(st.sampled_from(D2_VALUES), min_size=2, max_size=2)
    )
    funcs = draw(st.lists(st.sampled_from(FUNCS), min_size=1, max_size=3, unique=True))
    return table, target_value, other_value, funcs


def resolve(kind, target_value, other_value):
    predicate = col("d2") == target_value
    if kind == "table":
        return predicate, TABLE_REFERENCE
    if kind == "complement":
        return predicate, ResolvedReference("complement", ~predicate)
    # Overlaps the target whenever other_value == target_value.
    second = col("d2").isin([other_value, "w"])
    return predicate, ResolvedReference("query", second)


def view_groups(dimension_kind, funcs):
    """Three groups, so GROUPING SETS and ROLLUP really share a query; the
    first groups by the NULL-carrying ``d1`` (alone, or with ``d3``), the
    last by the NaN-carrying FLOAT ``f``."""
    measures = [(None if func == "count" else "m", func) for func in funcs]
    if dimension_kind == "name":
        first = ViewGroup("d1", tuple(ViewSpec("d1", m, f) for m, f in measures))
    else:
        dims = ("d1", "d3")
        first = ViewGroup(dims, tuple(ViewSpec(dims, m, f) for m, f in measures))
    return (
        first,
        ViewGroup("d2", (ViewSpec("d2", "m", "avg"),)),
        ViewGroup("f", (ViewSpec("f", None, "count"),)),
    )


def run_partitioned(steps, backend, n):
    """Every step run as ``n`` row-partitioned steps whose fetched results
    fold into one state per group, as the phased path's rounds do, then
    made view blocks once."""
    blocks = []
    for step in steps:
        states = {}
        for index in range(n):
            part = replace(step, partition=RowPartition(index, n))
            part.fold(part.fetch(backend), states)
        blocks.extend(states[group].block(part.merges_sides) for group in step.groups)
    return blocks


@pytest.mark.parametrize(
    "sharing,combine_flag,reference_kind,dimension_kind,backend_name",
    GRID,
    ids=lambda value: getattr(value, "value", str(value)),
)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_step_grid_equals_all_separate_baseline(
    sharing, combine_flag, reference_kind, dimension_kind, backend_name, data
):
    if backend_name == "duckdb":
        pytest.importorskip("duckdb")
    table, target_value, other_value, funcs = data.draw(workloads())
    predicate, reference = resolve(reference_kind, target_value, other_value)
    groups = view_groups(dimension_kind, funcs)

    def step(step_groups, step_sharing, flag):
        return ExecutionStep(
            "t", predicate, step_groups, step_sharing, flag, reference
        )

    backend = BACKENDS[backend_name]()
    try:
        backend.register_table(table)
        expected = ExecutionPlan(
            [
                step((ViewGroup(group.dimension, (view,)),), SHARINGS[0], False)
                for group in groups
                for view in group.views
            ]
        ).run(backend)
        if sharing is GroupByCombining.NONE:
            steps = [step((group,), sharing, combine_flag) for group in groups]
        else:
            steps = [step(groups, sharing, combine_flag)]
        actual = ExecutionPlan(steps).run(backend)
        partitioned = {n: run_partitioned(steps, backend, n) for n in (1, 3)}
    finally:
        backend.close()

    assert_same_views(actual, expected, atol=1e-9)
    # The partition axis: n interleaved row slices, folded, are the step.
    for folded in partitioned.values():
        assert_same_views(folded, actual, atol=1e-9)
    # A NULL dimension value (NaN in a FLOAT column) is the object None on
    # every path and backend: one group, apart from the string 'None'. Each
    # view's groups are the distinct keys of the rows either side reads.
    rows = np.ones(table.num_rows, dtype=bool)
    if reference.predicate is not None:
        rows = predicate.evaluate(table) | reference.predicate.evaluate(table)
    for spec, (groups, _target, _comparison) in view_rows(expected).items():
        names = spec.keys
        keys = zip(*(table.column(name)[rows] for name in names))
        raw = {canonical_key(key if len(names) > 1 else key[0]) for key in keys}
        assert len(set(groups)) == len(groups) and set(groups) == raw, spec.label


@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_auto_candidate_ranks_like_one_scan_per_dimension(backend_name, data):
    """Whatever the statistics, each candidate's bins give the top-k labels
    and utilities (within 1e-9) of one flag-combined scan per dimension."""
    table, target_value, _other_value, funcs = data.draw(workloads())
    dimensions = ("d1", "d3", "f")
    # Any cardinalities the planner may be handed: they move the bins, and
    # no arrangement may move the answer.
    cardinalities = {
        name: data.draw(st.integers(1, 300), label=name) for name in dimensions
    }
    measures = [(None if func == "count" else "m", func) for func in funcs]
    views = [ViewSpec(name, m, f) for name in dimensions for m, f in measures]
    k = data.draw(st.integers(1, len(views)), label="k")
    predicate = col("d2") == target_value
    planner = Planner(PlannerConfig(groupby_combining=GroupByCombining.AUTO))
    groups = planner.group_views(views, per_view=False)
    processor = ViewProcessor(get_metric("js"), NormalizationPolicy.SHIFT)

    backend = BACKENDS[backend_name]()
    try:
        backend.register_table(table)
        ranked = {}
        for candidate in planner.candidates(backend.capabilities):
            bins = PLAN_KINDS[candidate.kind].arrange(
                groups, candidate.config, cardinalities, True
            )
            plan = planner.build(bins, candidate.kind, "t", predicate, True)
            scored = processor.score_blocks(plan.run(backend))
            ranked[candidate.name] = (scored, top_k_views(scored.values(), k))
    finally:
        backend.close()

    expected_scores, expected_top = ranked.pop("none")
    for name, (scores, top) in ranked.items():
        assert set(scores) == set(expected_scores), name
        for spec, view in scores.items():
            assert view.utility == pytest.approx(
                expected_scores[spec].utility, abs=1e-9
            ), (name, spec.label)
        for got, want in zip(top, expected_top, strict=True):
            # Views whose utilities tie within the tolerance may swap.
            assert got.spec == want.spec or got.utility == pytest.approx(
                want.utility, abs=1e-9
            ), (name, got.spec.label, want.spec.label)
