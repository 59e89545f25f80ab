"""Execution plans: how view queries are combined and executed.

The paper's §3.3 query-combining optimizations are two independent
choices, and a plan step carries one field for each:

* **sides** (``combine_flag``) — target and comparison share one query
  ``GROUP BY (flag, a)`` whose partitions are merged afterwards, or run as
  two queries (the only option for a query-vs-query reference: one 0/1
  flag cannot partition two possibly overlapping selections).
* **sharing** (:class:`GroupByCombining`) — how several view groups share
  a scan: not at all (one group per step), one GROUPING SETS query, or one
  multi-attribute rollup marginalized per group in post-processing.

:class:`ExecutionStep` is the one step type and every strategy executes
it: it knows its logical queries and fetches their results as each view
group's partials, which ``run`` makes one view block per group; a phased
run fetches it one row partition at a time. The ways of arranging view
groups into steps are the rows of
:data:`PLAN_KINDS`; :class:`Planner` looks its mode up there and the
engine's cost-based ``PlanPhase`` prices one plan per row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.backends.base import Backend, BackendCapabilities
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.model.view import ViewBlock, ViewSpec
from repro.db.aggregates import Aggregate
from repro.db.expressions import Expression, RowPartition, TruePredicate
from repro.db.query import AggregateQuery, FlagColumn, GroupingSetsQuery
from repro.db.table import Table
from repro.optimizer.binpack import pack_dimensions
from repro.util.deadline import check_current
from repro.optimizer.combine import Partial, aux_aggregates, dedup_aggregates
from repro.optimizer.extract import (
    FLAG_NAME,
    group_block,
    marginalize,
    side_partials,
    view_dimension,
)
from repro.util.errors import ConfigError


class GroupByCombining(enum.Enum):
    """Strategy for the "Combine Multiple Group-bys" optimization."""

    NONE = "none"
    GROUPING_SETS = "grouping_sets"
    ROLLUP = "rollup"
    AUTO = "auto"  # resolved per backend through PLAN_KINDS


@dataclass(frozen=True)
class ViewGroup:
    """Views sharing one group-by dimension (the unit of aggregate combining).

    ``dimension`` is an attribute name, or a tuple of names for
    multi-attribute views (§2), whose group keys are attribute-value tuples.
    """

    dimension: "str | tuple[str, ...]"
    views: tuple[ViewSpec, ...]

    def __post_init__(self) -> None:
        if not self.views:
            raise ConfigError("a view group needs at least one view")
        for view in self.views:
            if view_dimension(view) != self.dimension:
                raise ConfigError(
                    f"view {view.label!r} does not group by {self.dimension!r}"
                )

    @property
    def keys(self) -> tuple[str, ...]:
        """The group-by attribute names, as a tuple either way."""
        if isinstance(self.dimension, str):
            return (self.dimension,)
        return self.dimension


@dataclass
class ExecutionStep:
    """One unit of plan execution (independent of any other step).

    ``groups`` run together: one group when ``sharing`` is ``NONE``,
    several dimensions in one GROUPING SETS query (a shared scan where the
    backend supports it), or several in one multi-attribute ``ROLLUP``
    group-by marginalized per group afterwards. ``combine_flag`` folds
    target and comparison into one query ``GROUP BY (flag, ...)``;
    otherwise the comparison runs as a second query over the reference's
    rows: the whole table (predicate None, §2), the target's complement,
    or an arbitrary second selection (query-vs-query).

    ``partition`` restricts every query of the step to one interleaved row
    slice — how phased execution runs the plan a partition at a time. It
    is a predicate AND-ed onto each WHERE clause, so every sharing kind
    and every backend executes it like any other step.
    """

    table: str
    predicate: "Expression | None"
    groups: tuple[ViewGroup, ...]
    sharing: GroupByCombining = GroupByCombining.NONE
    combine_flag: bool = True
    reference: ResolvedReference = TABLE_REFERENCE
    partition: "RowPartition | None" = None

    def __post_init__(self) -> None:
        if self.sharing is GroupByCombining.AUTO:
            raise ConfigError("a step's sharing must be a resolved plan kind")
        if not self.groups or (
            self.sharing is GroupByCombining.NONE and len(self.groups) != 1
        ):
            raise ConfigError(
                f"sharing {self.sharing.value!r} cannot run {len(self.groups)} "
                "view group(s) in one step"
            )

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return tuple(view for group in self.groups for view in group.views)

    def aggregates(self) -> tuple[Aggregate, ...]:
        """What every query of the step computes: the decomposed mergeable
        aggregates wherever results are merged afterwards (flag partitions,
        rollup marginals, row partitions), else the views' own aggregates."""
        merged = self.combine_flag or self.partition is not None
        if merged or self.sharing is GroupByCombining.ROLLUP:
            return aux_aggregates(self.views)
        return dedup_aggregates([view.aggregate for view in self.views])

    def queries(self) -> list:
        """The logical queries this step will issue (for costing/tests)."""
        if self.combine_flag:
            flag = FlagColumn(
                FLAG_NAME,
                self.predicate if self.predicate is not None else TruePredicate(),
            )
            sides = [((flag,), None)]
        else:
            sides = [((), self.predicate), ((), self.reference.predicate)]
        if self.partition is not None:
            part = self.partition
            sides = [
                (prefix, part if predicate is None else part & predicate)
                for prefix, predicate in sides
            ]
        aggregates = self.aggregates()
        if self.sharing is GroupByCombining.GROUPING_SETS:
            return [
                GroupingSetsQuery(
                    self.table,
                    tuple(prefix + group.keys for group in self.groups),
                    aggregates,
                    predicate,
                )
                for prefix, predicate in sides
            ]
        # NONE groups by its one group's keys, ROLLUP by every group's.
        keys = tuple(dict.fromkeys(k for group in self.groups for k in group.keys))
        return [
            AggregateQuery(self.table, prefix + keys, aggregates, predicate)
            for prefix, predicate in sides
        ]

    @property
    def merges_sides(self) -> bool:
        """Whether the comparison is both flag partitions merged (``table``)."""
        return self.combine_flag and self.reference.merge_partitions

    def fetch(
        self, backend: Backend
    ) -> "tuple[tuple[Aggregate, ...], list[tuple[Partial, Partial]]]":
        """Execute against ``backend``: the aggregates the queries carried
        and, per group in order, its partials — ``(target, rest)`` when
        flag-combined, else ``(target, comparison)``."""
        queries = self.queries()
        aggregates = queries[0].aggregates
        sides = [self._group_results(backend, query) for query in queries]
        return aggregates, [
            side_partials(results, group.dimension, aggregates)
            for group, results in zip(self.groups, zip(*sides))
        ]

    def run(self, backend: Backend) -> list[ViewBlock]:
        """Execute against ``backend``; one view block per group."""
        aggregates, fetched = self.fetch(backend)
        return [
            group_block(
                group.dimension, group.views, sides, aggregates, self.merges_sides
            )
            for group, sides in zip(self.groups, fetched)
        ]

    def _group_results(self, backend: Backend, query) -> list[Table]:
        """Run one side's query; one result table per group, in order."""
        if self.sharing is GroupByCombining.GROUPING_SETS:
            return backend.execute_grouping_sets(query)
        result = backend.execute(query)
        if self.sharing is GroupByCombining.NONE:
            return [result]
        flag_name = FLAG_NAME if self.combine_flag else None
        return [
            marginalize(result, group.keys, query.aggregates, flag_name)
            for group in self.groups
        ]

    def describe(self) -> str:
        n_queries = 1 if self.combine_flag else 2
        if self.sharing is not GroupByCombining.NONE:
            dimensions = [group.dimension for group in self.groups]
            return f"{self.sharing.value}[{dimensions}, {n_queries} query(ies)]"
        (group,) = self.groups
        sides = "flag" if self.combine_flag else "separate"
        noun = "query" if self.combine_flag else "queries"
        return (
            f"{sides}[{group.dimension}: {len(group.views)} view(s), "
            f"{n_queries} {noun}]"
        )


@dataclass
class ExecutionPlan:
    """An ordered list of independent steps covering every candidate view."""

    steps: list[ExecutionStep]

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return tuple(view for step in self.steps for view in step.views)

    def total_queries(self) -> int:
        """DBMS round trips the plan will issue (grouping-sets fallback on
        backends without native support may add more — see cost model)."""
        return sum(len(step.queries()) for step in self.steps)

    def run(self, backend: Backend) -> list[ViewBlock]:
        """Execute all steps sequentially; one view block per group."""
        blocks: list[ViewBlock] = []
        for step in self.steps:
            # Per-step checkpoint: abort a cancelled multi-step plan at a
            # step boundary even when the backend has no finer-grained one.
            check_current()
            blocks.extend(step.run(backend))
        return blocks

    def describe(self) -> str:
        lines = [f"plan: {len(self.steps)} step(s), {self.total_queries()} query(ies)"]
        lines.extend(f"  {step.describe()}" for step in self.steps)
        return "\n".join(lines)


@dataclass
class PlannerConfig:
    """Optimizer toggles — the demo Scenario 2 "knobs" (§4)."""

    combine_target_comparison: bool = True
    combine_aggregates: bool = True
    groupby_combining: GroupByCombining = GroupByCombining.NONE
    #: Rollup working-memory budget: max result groups per rollup query.
    memory_budget_cells: int = 100_000
    #: Upper bound on dimensions per combined query (keeps post-processing
    #: and GROUPING SETS statements manageable).
    max_dims_per_query: int = 8

    def __post_init__(self) -> None:
        if self.memory_budget_cells < 2:
            raise ConfigError("memory_budget_cells must be >= 2")
        if self.max_dims_per_query < 1:
            raise ConfigError("max_dims_per_query must be >= 1")


@dataclass(frozen=True)
class PlanKind:
    """One way of arranging view groups into steps.

    ``declared`` says whether a backend's capabilities make this kind the
    static resolution of ``AUTO``; ``arrange`` partitions the groups into
    the per-step bins (a bin of one runs unshared).
    """

    declared: Callable[[BackendCapabilities], bool]
    arrange: Callable[
        [list[ViewGroup], PlannerConfig, dict[str, int], bool],
        list[list[ViewGroup]],
    ]


def _unshared(groups, config, cardinalities, combine_flag):
    return [[group] for group in groups]


def _chunked(groups, config, cardinalities, combine_flag):
    size = config.max_dims_per_query
    return [groups[i : i + size] for i in range(0, len(groups), size)]


def _bin_packed(groups, config, cardinalities, combine_flag):
    """Bin-pack dimensions under the rollup working-memory budget. The flag
    column doubles the group count, so the budget halves when combined; a
    dimension of unknown cardinality is conservatively too large to share."""
    budget = config.memory_budget_cells
    if combine_flag:
        budget = max(budget // 2, 2)
    by_dimension = {group.dimension: group for group in groups}
    packed = pack_dimensions(
        {
            dimension: cardinalities.get(dimension, budget + 1)
            for dimension in by_dimension
        },
        budget_cells=budget,
        max_dims_per_bin=config.max_dims_per_query,
    )
    return [[by_dimension[name] for name in members] for members in packed.bins]


#: Every plan kind, in ``AUTO``'s order of preference: shared-scan GROUPING
#: SETS where the backend declares them, rollup otherwise. All three run on
#: every backend (grouping sets fall back to a UNION ALL emulation), so the
#: cost-based planner prices them all.
PLAN_KINDS: dict[GroupByCombining, PlanKind] = {
    GroupByCombining.GROUPING_SETS: PlanKind(
        lambda capabilities: capabilities.grouping_sets, _chunked
    ),
    GroupByCombining.ROLLUP: PlanKind(lambda capabilities: True, _bin_packed),
    GroupByCombining.NONE: PlanKind(lambda capabilities: True, _unshared),
}


def candidate_kinds(
    mode: GroupByCombining, capabilities: BackendCapabilities
) -> list[GroupByCombining]:
    """The plan kinds ``mode`` admits on a backend, preferred one first.

    A pinned mode admits itself. ``AUTO`` admits every row of
    :data:`PLAN_KINDS`, led by the first one the capabilities declare —
    the static resolution: the only kind planned when nothing is priced,
    and the deterministic tie-break (equal predicted cost → this choice)
    when the cost model picks.
    """
    if mode is not GroupByCombining.AUTO:
        return [mode]
    declared = next(
        kind for kind, row in PLAN_KINDS.items() if row.declared(capabilities)
    )
    return [declared] + [kind for kind in PLAN_KINDS if kind is not declared]


class Planner:
    """Builds an :class:`ExecutionPlan` from views and optimizer toggles."""

    def __init__(self, config: "PlannerConfig | None" = None):
        self.config = config if config is not None else PlannerConfig()

    def plan(
        self,
        views: list[ViewSpec],
        table: str,
        predicate: "Expression | None",
        cardinalities: dict[str, int],
        capabilities: BackendCapabilities,
        reference: ResolvedReference = TABLE_REFERENCE,
    ) -> ExecutionPlan:
        """Plan execution of ``views`` against ``table``.

        ``cardinalities`` (dimension -> distinct count) comes from the
        metadata collector and drives bin-packing. ``reference`` selects
        the comparison row set; a non-flag-combinable one (query-vs-query)
        forces separate target/comparison queries even when
        target/comparison combining is enabled.
        """
        config = self.config
        combine_flag = config.combine_target_comparison and reference.flag_combinable
        kind = candidate_kinds(config.groupby_combining, capabilities)[0]
        # Group-by combining subsumes aggregate combining within its merged
        # queries (a shared query necessarily carries all the aggregates).
        by_dimension = config.combine_aggregates or kind is not GroupByCombining.NONE
        groups = self._group_views(views, by_dimension)
        bins = PLAN_KINDS[kind].arrange(groups, config, cardinalities, combine_flag)
        return ExecutionPlan(
            steps=[
                ExecutionStep(
                    table=table,
                    predicate=predicate,
                    groups=tuple(members),
                    sharing=kind if len(members) > 1 else GroupByCombining.NONE,
                    combine_flag=combine_flag,
                    reference=reference,
                )
                for members in bins
            ]
        )

    @staticmethod
    def _group_views(views: list[ViewSpec], by_dimension: bool) -> list[ViewGroup]:
        if not by_dimension:
            return [ViewGroup(view_dimension(view), (view,)) for view in views]
        grouped: dict["str | tuple[str, ...]", list[ViewSpec]] = {}
        for view in views:
            grouped.setdefault(view_dimension(view), []).append(view)
        return [
            ViewGroup(dimension, tuple(members))
            for dimension, members in grouped.items()
        ]
