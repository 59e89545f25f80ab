"""Property tests: string predicates over dictionary codes equal row-wise ones.

A comparison or IN list on a string dimension is evaluated once per
distinct value, over the table's dictionary encoding (``Table.codes``), and
the flags are indexed by each row's code. The result must equal the mask a
row-by-row evaluation gives under SQL's NULL rule — a NULL row (``None``,
or a float NaN in an object column) or a NULL literal never matches, while
the strings ``"None"`` and ``"nan"`` are ordinary values — on a table
built from its arrays, on a table cut from it by a boolean mask, and on a
row partition cut by a slice.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expressions import And, ColumnRef, Comparison, In, Literal, Or
from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType

NAN = float("nan")
COLUMNS = ("s", "t")
SCHEMA = Schema(
    tuple(ColumnSpec(name, DataType.STR, AttributeRole.DIMENSION) for name in COLUMNS)
)
CELLS = st.sampled_from(["a", "b", "None", "nan", None, NAN])
LITERALS = st.sampled_from(["a", "b", "c", "None", "nan", None])
OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _objects(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def tables(draw) -> Table:
    n = draw(st.integers(0, 30))
    return Table(
        "t",
        SCHEMA,
        {
            name: _objects(draw(st.lists(CELLS, min_size=n, max_size=n)))
            for name in COLUMNS
        },
    )


def leaves():
    column = st.sampled_from(COLUMNS).map(ColumnRef)
    comparisons = st.builds(
        Comparison, st.sampled_from(sorted(OPERATORS)), column, LITERALS.map(Literal)
    )
    lists = st.builds(In, column, st.lists(LITERALS, max_size=4).map(tuple))
    return comparisons | lists


def predicates():
    return st.recursive(
        leaves(),
        lambda children: st.builds(And, st.lists(children, min_size=2, max_size=3).map(tuple))
        | st.builds(Or, st.lists(children, min_size=2, max_size=3).map(tuple)),
        max_leaves=6,
    )


def row_wise(predicate, table: Table) -> np.ndarray:
    """The mask of ``predicate``, one row and one Python comparison at a time."""
    if isinstance(predicate, (And, Or)):
        masks = [row_wise(operand, table) for operand in predicate.operands]
        combine = np.logical_and if isinstance(predicate, And) else np.logical_or
        return combine.reduce(masks)
    values = table.columns[predicate.column.name]
    if isinstance(predicate, In):
        candidates = [c for c in predicate.values if not _null(c)]
        return np.array(
            [not _null(v) and any(v == c for c in candidates) for v in values], dtype=bool
        )
    literal = predicate.literal.value
    compare = OPERATORS[predicate.op]
    return np.array(
        [not _null(v) and not _null(literal) and compare(v, literal) for v in values],
        dtype=bool,
    )


def assert_same(predicate, table: Table) -> None:
    got = predicate.evaluate(table)
    assert got.dtype == np.bool_ and got.shape == (table.num_rows,)
    np.testing.assert_array_equal(got, row_wise(predicate, table))


@settings(max_examples=150, deadline=None)
@given(tables(), predicates())
def test_codes_path_equals_row_wise_on_a_registered_table(table, predicate):
    assert_same(predicate, table)


@settings(max_examples=100, deadline=None)
@given(st.data(), tables(), predicates())
def test_codes_path_equals_row_wise_on_a_masked_table(data, table, predicate):
    n = table.num_rows
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    table.codes("s")  # the parent's encoding exists before the cut
    assert_same(predicate, table.mask(np.array(keep, dtype=bool)))


@settings(max_examples=100, deadline=None)
@given(st.data(), tables(), predicates())
def test_codes_path_equals_row_wise_on_a_row_partition(data, table, predicate):
    of = data.draw(st.integers(1, 4))
    index = data.draw(st.integers(0, of - 1))
    assert_same(predicate, table.take(slice(index, None, of)))
