"""Logical query model shared by all backends.

Three query shapes cover everything SeeDB needs (paper §2-3):

* :class:`RowSelectQuery` — the analyst's input query ``Q`` selecting rows
  from the fact table (``SELECT * FROM t WHERE ...``).
* :class:`AggregateQuery` — a view query
  (``SELECT a, f(m) FROM t [WHERE ...] GROUP BY a``), possibly with several
  aggregates and several group-by keys after optimizer combining.
* :class:`GroupingSetsQuery` — several group-by sets over one scan
  (the "Combine Multiple Group-bys" optimization; SQL ``GROUPING SETS``).

Group-by keys are either plain column names or a :class:`FlagColumn` — a
virtual 0/1 column marking rows matched by a predicate, which is how the
optimizer folds target and comparison views into one query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.db.aggregates import Aggregate
from repro.db.expressions import Expression
from repro.db.schema import ColumnSpec, Schema
from repro.db.types import AttributeRole, DataType
from repro.util.errors import QueryError


@dataclass(frozen=True)
class FlagColumn:
    """Virtual column: 1 where ``predicate`` holds, else 0.

    Renders to SQL as ``CASE WHEN <predicate> THEN 1 ELSE 0 END AS <name>``.
    """

    name: str
    predicate: Expression

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("flag column needs a name")


GroupingKey = Union[str, FlagColumn]


def grouping_key_name(key: GroupingKey) -> str:
    """The output column name of a grouping key."""
    return key if isinstance(key, str) else key.name


@dataclass(frozen=True)
class RowSelectQuery:
    """``SELECT * FROM table [WHERE predicate] [LIMIT n]`` — the analyst's
    query Q. ``limit`` serves frontend previews; view enumeration always
    works on the unlimited selection semantics (a LIMIT would make the
    target view depend on physical row order)."""

    table: str
    predicate: Expression | None = None
    limit: "int | None" = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise QueryError(f"limit must be >= 0, got {self.limit}")


@dataclass(frozen=True)
class AggregateQuery:
    """``SELECT keys, aggs FROM table [WHERE predicate] GROUP BY keys``."""

    table: str
    group_by: tuple[GroupingKey, ...]
    aggregates: tuple[Aggregate, ...]
    predicate: Expression | None = None

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise QueryError("aggregate query needs at least one aggregate")
        names = [grouping_key_name(key) for key in self.group_by]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate group-by keys: {names}")
        aliases = [a.alias for a in self.aggregates]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aggregate aliases: {aliases}")
        overlap = set(names) & set(aliases)
        if overlap:
            raise QueryError(f"keys and aggregates share names: {sorted(overlap)}")

    @property
    def key_names(self) -> tuple[str, ...]:
        """Output names of the group-by keys, in order."""
        return tuple(grouping_key_name(key) for key in self.group_by)


@dataclass(frozen=True)
class GroupingSetsQuery:
    """Several group-by key sets evaluated over a single scan of ``table``.

    Execution yields one result table per set, in order. Equivalent to SQL's
    ``GROUP BY GROUPING SETS ((s1...), (s2...))`` followed by splitting the
    result by set.
    """

    table: str
    sets: tuple[tuple[GroupingKey, ...], ...]
    aggregates: tuple[Aggregate, ...]
    predicate: Expression | None = None

    def __post_init__(self) -> None:
        if not self.sets:
            raise QueryError("grouping-sets query needs at least one set")
        if not self.aggregates:
            raise QueryError("grouping-sets query needs at least one aggregate")

    def as_single_queries(self) -> tuple[AggregateQuery, ...]:
        """The semantically equivalent independent queries: one per set,
        validated as such. They shape each set's result, and backends
        without shared-scan support execute them as the fallback."""
        return tuple(
            AggregateQuery(
                table=self.table,
                group_by=key_set,
                aggregates=self.aggregates,
                predicate=self.predicate,
            )
            for key_set in self.sets
        )


Query = Union[RowSelectQuery, AggregateQuery, GroupingSetsQuery]


def aggregate_result_schema(base: Schema, query: AggregateQuery) -> Schema:
    """Result-table schema of an aggregate query over ``base``.

    Shared by every backend: grouping keys keep their base dtype and
    semantic (flags become INT), aggregates are FLOAT measures.
    """
    specs: list[ColumnSpec] = []
    for key in query.group_by:
        if isinstance(key, FlagColumn):
            specs.append(ColumnSpec(key.name, DataType.INT, AttributeRole.DIMENSION))
        else:
            base_spec = base[key]
            specs.append(
                ColumnSpec(key, base_spec.dtype, AttributeRole.DIMENSION, base_spec.semantic)
            )
    for aggregate in query.aggregates:
        specs.append(ColumnSpec(aggregate.alias, DataType.FLOAT, AttributeRole.MEASURE))
    return Schema(tuple(specs))
