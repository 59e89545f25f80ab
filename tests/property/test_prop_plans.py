"""Property tests: every plan shape extracts identical view data.

The optimizer's central contract — combining strategies change *work*, not
*answers* — verified on randomized tables (random group structures, a
dimension carrying NULLs, NaN measures, random predicates) over the whole
step grid: sharing × sides × reference × single-/multi-attribute
dimension × backend, each cell against the all-separate baseline (one
unshared two-query step per view) on the same backend — and, along the
partition axis, against itself run one row partition at a time and folded
the way phased execution folds its rounds.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.multiview import MultiViewSpec
from repro.db.expressions import RowPartition, col
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.engine.incremental import fold_partition
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.model.view import ViewSpec
from repro.optimizer.extract import FLAG_NAME, extract_views
from repro.optimizer.plan import (
    ExecutionPlan,
    ExecutionStep,
    GroupByCombining,
    ViewGroup,
)

FUNCS = ["sum", "avg", "min", "max", "count", "var"]
D2_VALUES = ["x", "y", "z", "w"]
BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}
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
def workloads(draw, allow_nan):
    n_rows = draw(st.integers(2, 60))

    def column(values):
        # Row 0 pins a string, so type inference never sees an all-NULL column.
        rest = st.lists(st.sampled_from(values), min_size=n_rows - 1, max_size=n_rows - 1)
        return [values[0]] + draw(rest)

    finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    measure = st.one_of(finite, st.just(float("nan"))) if allow_nan else finite
    table = Table.from_columns(
        "t",
        {
            "d1": column(["a", "b", "c", None]),
            "d2": column(D2_VALUES),
            "d3": column(["p", "q"]),
            "m": draw(st.lists(measure, min_size=n_rows, max_size=n_rows)),
        },
        roles={
            "d1": AttributeRole.DIMENSION,
            "d2": AttributeRole.DIMENSION,
            "d3": AttributeRole.DIMENSION,
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
    """Two groups, so GROUPING SETS and ROLLUP really share a query; the
    first groups by the NULL-carrying ``d1`` (alone, or with ``d3``)."""
    measures = [(None if func == "count" else "m", func) for func in funcs]
    if dimension_kind == "name":
        first = ViewGroup("d1", tuple(ViewSpec("d1", m, f) for m, f in measures))
    else:
        dims = ("d1", "d3")
        first = ViewGroup(dims, tuple(MultiViewSpec(dims, m, f) for m, f in measures))
    return first, ViewGroup("d2", (ViewSpec("d2", "m", "avg"),))


def assert_matches(actual, expected):
    assert set(actual) == set(expected)
    for spec in expected:
        a, e = actual[spec], expected[spec]
        assert a.target_keys == e.target_keys, spec.label
        assert a.comparison_keys == e.comparison_keys, spec.label
        np.testing.assert_allclose(
            a.target_values, e.target_values, equal_nan=True, atol=1e-9,
            err_msg=spec.label,
        )
        np.testing.assert_allclose(
            a.comparison_values, e.comparison_values, equal_nan=True, atol=1e-9,
            err_msg=spec.label,
        )


def run_partitioned(steps, backend, n):
    """Every step run as ``n`` row-partitioned steps whose ``fetch`` results
    are folded with the phased path's merge, then extracted once."""
    extracted = {}
    for step in steps:
        flag_name = FLAG_NAME if step.combine_flag else None
        running = [None] * len(step.groups)
        for index in range(n):
            part = replace(step, partition=RowPartition(index, n))
            aggregates, fetched = part.fetch(backend)
            running = [
                fold_partition(old, tables, group.keys, aggregates, flag_name)
                for old, tables, group in zip(running, fetched, step.groups)
            ]
        for group, tables in zip(step.groups, running):
            extracted.update(
                extract_views(
                    tables, group.dimension, group.views, aggregates,
                    merge=step.reference.merge_partitions,
                )
            )
    return extracted


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
    # SQL SUM over an all-NULL group is NULL where numpy's is 0, and the
    # additive partition merge does not paper over that; NaN measures stay
    # on the memory backend, whose cells they can tell apart.
    table, target_value, other_value, funcs = data.draw(
        workloads(allow_nan=backend_name == "memory")
    )
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

    assert_matches(actual, expected)
    # The partition axis: n interleaved row slices, folded, are the step.
    for folded in partitioned.values():
        assert_matches(folded, actual)
    # A NULL dimension value is the object None on every path and backend,
    # never the string 'None'.
    for raw in expected.values():
        for key in raw.target_keys + raw.comparison_keys:
            assert "None" not in (key if isinstance(key, tuple) else (key,))
