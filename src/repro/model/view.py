"""View triples and their materialized data.

Paper §2: "We represent V_i as a triple (a, m, f) — the view performs a
group-by on ``a`` and applies the aggregation function ``f`` on a measure
attribute ``m``." A :class:`ViewSpec` is that triple; it knows how to
express its *target view* (over the query's rows D_Q) and *comparison view*
(over the full table D) as logical queries. Its ``a`` may also be a tuple
of attributes — the multi-attribute views §2 generalizes to — so one type
serves single- and multi-attribute views alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.db.aggregates import Aggregate
from repro.db.expressions import Expression
from repro.db.query import AggregateQuery
from repro.db.schema import Schema
from repro.db.types import AttributeRole
from repro.util.errors import QueryError


@dataclass(frozen=True, slots=True)
class ViewSpec:
    """A candidate view: group-by ``dimension``, aggregate ``func(measure)``.

    ``dimension`` is one attribute name, or — the §2 generalization to
    "multiple column views … generated via multi-attribute grouping and
    aggregation" — a tuple of two or more distinct names, whose groups are
    attribute-value combinations; :attr:`keys` is the tuple either way.
    ``measure`` is None only for ``count`` (COUNT(*)), a natural member of
    the view space even though the paper's notation always pairs f with m.
    Specs order lexicographically by ``(dimension, measure, func)`` with a
    missing measure sorting first, so rankings stay deterministic.
    """

    dimension: "str | tuple[str, ...]"
    measure: str | None
    func: str

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, str):
            if len(self.dimension) < 2:
                raise QueryError(
                    "multi-attribute views need >= 2 dimensions; name a "
                    "single-attribute view's dimension as a string"
                )
            if len(set(self.dimension)) != len(self.dimension):
                raise QueryError(f"duplicate dimensions in {self.dimension}")
        if self.measure is None and self.func != "count":
            raise QueryError(
                f"view ({self.dimension}, None, {self.func}): only 'count' "
                "may omit the measure"
            )

    def __reduce__(self):
        # Pickle as a constructor call: a cluster reply carries one spec
        # per executed view, and the slots-dataclass state protocol costs
        # a Python-level call per spec on each side of the pipe.
        return (ViewSpec, (self.dimension, self.measure, self.func))

    @property
    def keys(self) -> tuple[str, ...]:
        """The group-by attribute names, as a tuple either way."""
        if isinstance(self.dimension, str):
            return (self.dimension,)
        return self.dimension

    @property
    def sort_key(self) -> tuple:
        """None-safe lexicographic ordering key."""
        return (self.dimension, self.measure or "", self.func)

    def __lt__(self, other: "ViewSpec") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "ViewSpec") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "ViewSpec") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "ViewSpec") -> bool:
        return self.sort_key >= other.sort_key

    @property
    def aggregate(self) -> Aggregate:
        """The SELECT-list aggregate ``f(m)`` of this view."""
        return Aggregate(self.func, self.measure)

    @property
    def label(self) -> str:
        """Human-readable ``f(m) by a`` / ``f(m) by (a, b)`` label used in
        reports and charts."""
        measure = self.measure if self.measure is not None else "*"
        if isinstance(self.dimension, str):
            return f"{self.func}({measure}) by {self.dimension}"
        return f"{self.func}({measure}) by ({', '.join(self.dimension)})"

    def validate_against(self, schema: Schema) -> None:
        """Check the view is well-formed for ``schema`` (raises SchemaError)."""
        for key in self.keys:
            schema.require(key, AttributeRole.DIMENSION)
        if self.measure is not None:
            schema.require(self.measure, AttributeRole.MEASURE)

    def target_query(self, table: str, predicate: Expression | None) -> AggregateQuery:
        """``SELECT a, f(m) FROM D_Q GROUP BY a`` — the target view (§2)."""
        return AggregateQuery(
            table=table,
            group_by=self.keys,
            aggregates=(self.aggregate,),
            predicate=predicate,
        )

    def comparison_query(
        self, table: str, predicate: Expression | None = None
    ) -> AggregateQuery:
        """``SELECT a, f(m) FROM D GROUP BY a`` — the comparison view (§2).

        ``predicate`` restricts the comparison row set for non-table
        references (complement / query-vs-query); ``None`` keeps the
        paper's whole-table comparison.
        """
        return AggregateQuery(
            table=table,
            group_by=self.keys,
            aggregates=(self.aggregate,),
            predicate=predicate,
        )

    def __str__(self) -> str:
        return self.label


@dataclass
class RawViewData:
    """Un-normalized series for one view, straight from query results.

    Keys are group values of the view's dimension; values are the finalized
    aggregate per group. Target and comparison may have different key sets —
    alignment happens during scoring.
    """

    spec: ViewSpec
    target_keys: list[Any]
    target_values: np.ndarray
    comparison_keys: list[Any]
    comparison_values: np.ndarray


@dataclass
class ViewBlock:
    """Columnar batch of views sharing one dimension and key universe.

    The hand-off from plan execution to the View Processor, made by
    :meth:`~repro.optimizer.combine.GroupState.block` from the one state a
    view group's results fold into: the group's views (all grouping by
    ``dimension``) as two dense ``(n_views, n_groups)`` matrices over every
    key either side carried. Row ``i`` of ``target`` / ``comparison`` holds
    the raw aggregate series of ``specs[i]``; a key absent from a side
    reads 0 (no mass), a NULL aggregate NaN.
    """

    dimension: "str | tuple[str, ...]"
    specs: tuple
    #: Group keys sorted by ``group_sort_key`` — the shared support.
    groups: list[Any]
    target: np.ndarray
    comparison: np.ndarray

    @property
    def n_views(self) -> int:
        return len(self.specs)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        return (
            f"ViewBlock(dimension={self.dimension!r}, "
            f"views={self.n_views}, groups={self.n_groups})"
        )


@dataclass
class ScoredView:
    """A view with aligned distributions and its utility score.

    ``groups`` / ``target_distribution`` / ``comparison_distribution`` are
    aligned: entry i of each array refers to ``groups[i]``.
    """

    spec: ViewSpec
    utility: float
    groups: list[Any]
    target_distribution: np.ndarray
    comparison_distribution: np.ndarray
    #: Raw (un-normalized) aggregate values, aligned with ``groups``.
    target_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    comparison_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def max_deviation_group(self) -> Any:
        """The group whose probability deviates most — frontend metadata
        ("value with maximum change", §3.2)."""
        if not self.groups:
            return None
        deltas = np.abs(self.target_distribution - self.comparison_distribution)
        return self.groups[int(np.argmax(deltas))]

    def __repr__(self) -> str:
        return f"ScoredView({self.spec.label!r}, utility={self.utility:.4f})"
