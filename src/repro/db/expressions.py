"""Predicate expression AST.

SeeDB input queries select "one or more rows from the fact table" (§2), so
the expression language covers the WHERE-clause subset needed for that:
comparisons, IN, BETWEEN, and boolean combinators. Every node knows how to

* evaluate itself to a boolean numpy mask against a :class:`Table`, and
* report the columns it references (used by the metadata access log).

SQL *rendering* lives in :mod:`repro.backends.sqlgen` and *parsing* in
:mod:`repro.sqlparser`, keeping this module dependency-free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from datetime import date
from typing import Any, Callable

import numpy as np

from repro.db.table import Table
from repro.util.errors import QueryError

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expression:
    """Base class for boolean predicate nodes."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Return a boolean mask of the rows of ``table`` matching this node."""
        raise NotImplementedError

    def referenced_columns(self) -> frozenset[str]:
        """Names of all columns this predicate reads."""
        raise NotImplementedError

    # Convenience combinators so predicates compose fluently:
    def __and__(self, other: "Expression") -> "Expression":
        return And((self, other))

    def __or__(self, other: "Expression") -> "Expression":
        return Or((self, other))

    def __invert__(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True)
class TruePredicate(Expression):
    """Matches every row; the identity element for AND."""

    def evaluate(self, table: Table) -> np.ndarray:
        return np.ones(table.num_rows, dtype=bool)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a column by name (operand of comparisons)."""

    name: str

    def values(self, table: Table) -> np.ndarray:
        return table.column(self.name)


@dataclass(frozen=True)
class Literal:
    """A constant operand."""

    value: Any


def _coerce_literal(value: Any) -> Any:
    """Normalize literals so comparisons against date columns work."""
    if isinstance(value, date) and not isinstance(value, np.datetime64):
        return np.datetime64(value, "D")
    return value


def _is_null(value: Any) -> bool:
    """``None``, or a NaN / NaT literal: SQL NULL."""
    return value is None or value != value


def _matching(
    table: Table, name: str, test: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Rows of column ``name`` whose non-NULL value passes ``test``.

    A NULL row never matches, as in SQL. An object (string) column is
    tested once per distinct value, over its dictionary encoding
    (:meth:`Table.codes`), and the flags are indexed by each row's code.
    """
    values = table.column(name)
    if values.dtype == object:
        codes, uniques = table.codes(name)
        present = np.array([value is not None for value in uniques], dtype=bool)
        flags = np.zeros(len(uniques), dtype=bool)
        flags[present] = test(uniques[present])
        return flags[codes]
    flags = test(values)
    if values.dtype.kind in "fmM":
        flags &= values == values  # NaN / NaT is NULL
    return flags


@dataclass(frozen=True)
class Comparison(Expression):
    """``column <op> literal`` for op in =, !=, <, <=, >, >=.

    A NULL row, or a NULL literal, never matches (SQL's rule).
    """

    op: str
    column: ColumnRef
    literal: Literal

    def __post_init__(self) -> None:
        if self.op not in _COMPARE:
            raise QueryError(
                f"unsupported comparison operator {self.op!r}; "
                f"expected one of {tuple(_COMPARE)}"
            )

    def evaluate(self, table: Table) -> np.ndarray:
        literal = _coerce_literal(self.literal.value)
        if _is_null(literal):
            table.column(self.column.name)  # validates
            return np.zeros(table.num_rows, dtype=bool)
        compare = _COMPARE[self.op]
        try:
            return _matching(
                table, self.column.name, lambda values: compare(values, literal)
            )
        except TypeError as exc:
            raise QueryError(
                f"cannot compare column {self.column.name!r} with {literal!r}: {exc}"
            ) from exc

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column.name})


@dataclass(frozen=True)
class In(Expression):
    """``column IN (v1, v2, ...)``; a NULL row or candidate never matches."""

    column: ColumnRef
    values: tuple[Any, ...]

    def evaluate(self, table: Table) -> np.ndarray:
        candidates = [_coerce_literal(v) for v in self.values]
        candidates = [v for v in candidates if not _is_null(v)]
        if not candidates:
            table.column(self.column.name)  # validates
            return np.zeros(table.num_rows, dtype=bool)
        return _matching(
            table, self.column.name, lambda values: np.isin(values, candidates)
        )

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column.name})


@dataclass(frozen=True)
class Between(Expression):
    """``column BETWEEN low AND high`` (inclusive, like SQL)."""

    column: ColumnRef
    low: Any
    high: Any

    def evaluate(self, table: Table) -> np.ndarray:
        values = self.column.values(table)
        low = _coerce_literal(self.low)
        high = _coerce_literal(self.high)
        return (values >= low) & (values <= high)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column.name})


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of two or more predicates."""

    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("And requires at least two operands")

    def evaluate(self, table: Table) -> np.ndarray:
        mask = self.operands[0].evaluate(table)
        for operand in self.operands[1:]:
            mask = mask & operand.evaluate(table)
        return mask

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(*(op.referenced_columns() for op in self.operands))


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of two or more predicates."""

    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("Or requires at least two operands")

    def evaluate(self, table: Table) -> np.ndarray:
        mask = self.operands[0].evaluate(table)
        for operand in self.operands[1:]:
            mask = mask | operand.evaluate(table)
        return mask

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(*(op.referenced_columns() for op in self.operands))


@dataclass(frozen=True)
class Not(Expression):
    """Negation."""

    operand: Expression

    def evaluate(self, table: Table) -> np.ndarray:
        return ~self.operand.evaluate(table)

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()


@dataclass(frozen=True)
class RowPartition(Expression):
    """Rows whose 0-based load position is ``index`` modulo ``of``.

    ``of`` disjoint, exhaustive, interleaved slices of a table — each an
    unbiased sample, and the same row set on every backend. Engine-internal
    (phased execution ANDs it onto a plan step's queries): it has no wire
    form and the SQL parser never produces it.
    """

    index: int
    of: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.of:
            raise QueryError(f"row partition index {self.index} outside [0, {self.of})")

    def evaluate(self, table: Table) -> np.ndarray:
        return np.arange(table.num_rows) % self.of == self.index

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()


def split_partition(
    predicate: "Expression | None",
) -> "tuple[RowPartition | None, Expression | None]":
    """``(partition, rest)`` of a WHERE clause led by a :class:`RowPartition`
    — the shape a partitioned plan step builds — else ``(None, predicate)``."""
    if isinstance(predicate, RowPartition):
        return predicate, None
    if isinstance(predicate, And) and isinstance(predicate.operands[0], RowPartition):
        partition, *rest = predicate.operands
        return partition, rest[0] if len(rest) == 1 else And(tuple(rest))
    return None, predicate


class _ColumnBuilder:
    """Fluent predicate builder: ``col('price') > 10`` etc.

    Returned by :func:`col`; the rich-comparison operators build
    :class:`Comparison` nodes so analyst-facing code reads naturally:

    >>> predicate = (col("product") == "Laserwave") & (col("amount") > 0)
    """

    def __init__(self, name: str) -> None:
        self._ref = ColumnRef(name)

    def __eq__(self, other: Any) -> Comparison:  # type: ignore[override]
        return Comparison("=", self._ref, Literal(other))

    def __ne__(self, other: Any) -> Comparison:  # type: ignore[override]
        return Comparison("!=", self._ref, Literal(other))

    def __lt__(self, other: Any) -> Comparison:
        return Comparison("<", self._ref, Literal(other))

    def __le__(self, other: Any) -> Comparison:
        return Comparison("<=", self._ref, Literal(other))

    def __gt__(self, other: Any) -> Comparison:
        return Comparison(">", self._ref, Literal(other))

    def __ge__(self, other: Any) -> Comparison:
        return Comparison(">=", self._ref, Literal(other))

    def isin(self, values: Any) -> In:
        return In(self._ref, tuple(values))

    def between(self, low: Any, high: Any) -> Between:
        return Between(self._ref, low, high)

    __hash__ = None  # type: ignore[assignment]  # == builds a node, not a bool


def col(name: str) -> _ColumnBuilder:
    """Entry point of the fluent predicate builder (see :class:`_ColumnBuilder`)."""
    return _ColumnBuilder(name)
