"""NULL rows never match a comparison or an IN list, on every backend.

SQL's rule: ``x <op> v`` and ``x IN (...)`` are NULL, so not true, when
``x`` is NULL, and so is any comparison with a NULL literal. The table
here has NULLs in a string dimension (``None``, beside the string
``'None'``) and in a float dimension (NaN, which the SQL backends store as
NULL); every backend — memory, sqlite, and duckdb where its optional wheel
is installed — must count, per group, the rows an oracle built from the
raw rows under that rule counts.
"""

from __future__ import annotations

import importlib.util
import math
import operator

import pytest

from repro.backends.duckdb import DuckDbBackend
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.db.aggregates import Aggregate
from repro.db.expressions import Comparison, ColumnRef, In, Literal
from repro.db.query import AggregateQuery
from repro.db.table import Table
from repro.db.types import AttributeRole

BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}
if importlib.util.find_spec("duckdb") is not None:  # the optional wheel
    BACKENDS["duckdb"] = DuckDbBackend
NAN = float("nan")
STRINGS = ["a", None, "b", "None", "c", None, "a", "b", None, "c"] * 2
FLOATS = [0.5, 1.5, NAN, 2.5, NAN, 0.5, 1.5, 2.5, 0.5, NAN] * 2
GROUPS = ["x", "y", "z", "x", "y"] * 4
OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">=": operator.ge,
}
CASES = [
    *[("d", op, "b") for op in OPERATORS],
    *[("f", op, 1.5) for op in OPERATORS],
    ("d", "=", None),
    ("d", "!=", None),
    ("f", "!=", None),
    ("d", "in", ("a", "None", None)),
    ("f", "in", (0.5, 2.5, None)),
]


def null_table() -> Table:
    assert STRINGS.count(None) == 6 and len(STRINGS) == 20
    return Table.from_columns(
        "t",
        {"d": STRINGS, "f": FLOATS, "e": GROUPS, "m": [float(i) for i in range(20)]},
        roles={
            "d": AttributeRole.DIMENSION,
            "f": AttributeRole.DIMENSION,
            "e": AttributeRole.DIMENSION,
            "m": AttributeRole.MEASURE,
        },
    )


def _null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def oracle(column: str, op: str, literal) -> dict[str, int]:
    """``COUNT(*) ... GROUP BY e`` from the raw rows, under SQL's rule."""
    values = STRINGS if column == "d" else FLOATS
    counts: dict[str, int] = {}
    for value, group in zip(values, GROUPS):
        if _null(value):
            continue
        if op == "in":
            match = any(not _null(v) and value == v for v in literal)
        else:
            match = not _null(literal) and OPERATORS[op](value, literal)
        if match:
            counts[group] = counts.get(group, 0) + 1
    return counts


def predicate(column: str, op: str, literal):
    if op == "in":
        return In(ColumnRef(column), literal)
    return Comparison(op, ColumnRef(column), Literal(literal))


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    backend = BACKENDS[request.param]()
    backend.register_table(null_table())
    yield backend
    backend.close()


@pytest.mark.parametrize(("column", "op", "literal"), CASES)
def test_null_rows_never_match(backend, column, op, literal):
    query = AggregateQuery(
        "t", ("e",), (Aggregate("count"),), predicate(column, op, literal)
    )
    result = backend.execute(query)
    counts = {
        group: int(count)
        for group, count in zip(result.column("e"), result.column("count(*)"))
        if count
    }
    assert counts == oracle(column, op, literal)
