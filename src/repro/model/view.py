"""View triples and their materialized data.

Paper §2: "We represent V_i as a triple (a, m, f) — the view performs a
group-by on ``a`` and applies the aggregation function ``f`` on a measure
attribute ``m``." A :class:`ViewSpec` is that triple; it knows how to
express its *target view* (over the query's rows D_Q) and *comparison view*
(over the full table D) as logical queries.
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

    ``measure`` is None only for ``count`` (COUNT(*)), a natural member of
    the view space even though the paper's notation always pairs f with m.
    Specs order lexicographically by ``(dimension, measure, func)`` with a
    missing measure sorting first, so rankings stay deterministic.
    """

    dimension: str
    measure: str | None
    func: str

    def __post_init__(self) -> None:
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
    def sort_key(self) -> tuple[str, str, str]:
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
        """Human-readable ``f(m) by a`` label used in reports and charts."""
        measure = self.measure if self.measure is not None else "*"
        return f"{self.func}({measure}) by {self.dimension}"

    def validate_against(self, schema: Schema) -> None:
        """Check the triple is well-formed for ``schema`` (raises SchemaError)."""
        schema.require(self.dimension, AttributeRole.DIMENSION)
        if self.measure is not None:
            schema.require(self.measure, AttributeRole.MEASURE)

    def target_query(self, table: str, predicate: Expression | None) -> AggregateQuery:
        """``SELECT a, f(m) FROM D_Q GROUP BY a`` — the target view (§2)."""
        return AggregateQuery(
            table=table,
            group_by=(self.dimension,),
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
            group_by=(self.dimension,),
            aggregates=(self.aggregate,),
            predicate=predicate,
        )

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class MultiViewSpec:
    """A view grouping by several dimensions: ``f(m) by (a1, ..., ak)``.

    The paper's stated generalization (§2): "SEEDB techniques can directly
    be used to recommend visualizations for multiple column views (> 2
    columns) that are generated via multi-attribute grouping and
    aggregation." Its distribution ranges over existing attribute-value
    combinations.
    """

    dimensions: tuple[str, ...]
    measure: "str | None"
    func: str

    def __post_init__(self) -> None:
        if len(self.dimensions) < 2:
            raise QueryError(
                "multi-attribute views need >= 2 dimensions; use ViewSpec "
                "for single-attribute views"
            )
        if len(set(self.dimensions)) != len(self.dimensions):
            raise QueryError(f"duplicate dimensions in {self.dimensions}")
        if self.measure is None and self.func != "count":
            raise QueryError("only 'count' may omit the measure")

    @property
    def aggregate(self) -> Aggregate:
        return Aggregate(self.func, self.measure)

    @property
    def label(self) -> str:
        measure = self.measure if self.measure is not None else "*"
        dims = ", ".join(self.dimensions)
        return f"{self.func}({measure}) by ({dims})"

    @property
    def sort_key(self) -> tuple:
        return (self.dimensions, self.measure or "", self.func)

    def __lt__(self, other: "MultiViewSpec") -> bool:
        return self.sort_key < other.sort_key


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

    The hand-off from plan execution to the View Processor: the views of
    one view group (all grouping by ``dimension`` and read from the same
    query results) are materialized as two dense ``(n_views, n_groups)``
    matrices over the aligned union key universe. Row ``i`` of ``target`` /
    ``comparison`` holds the raw aggregate series of ``specs[i]``; absent
    groups are already filled with 0 (no mass).
    """

    dimension: "str | tuple[str, ...]"
    specs: tuple
    #: Union group keys, sorted — the shared support of every row.
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
