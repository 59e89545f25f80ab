"""Execution plans: how view queries are combined and executed.

The paper's §3.3 query-combining optimizations are two independent
choices, and a plan step carries one field for each:

* **sides** (``combine_flag``) — target and comparison share one query
  ``GROUP BY (flag, a)`` whose partitions are merged afterwards, or run as
  two queries (the only option for a query-vs-query reference: one 0/1
  flag cannot partition two possibly overlapping selections).
* **sharing** (:class:`GroupByCombining`) — how several view groups share
  a scan: not at all (one group per step), one GROUPING SETS query, or one
  multi-attribute rollup that each group folds onto its own keys.

:class:`ExecutionStep` is the one step type and every strategy executes
it: it knows its logical queries and folds their results into each view
group's :class:`~repro.optimizer.combine.GroupState`, from which ``run``
makes one view block per group; a phased run fetches it one row
partition at a time and folds every round into the same states. The ways
of arranging view groups into steps are the rows of :data:`PLAN_KINDS`;
:class:`Planner` looks its mode up there, and under ``AUTO`` offers every
row — rollups at each budget of :data:`ROLLUP_BUDGET_LADDER` — as a
candidate for :func:`~repro.optimizer.cost.choose_plan` to price.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from repro.backends.base import Backend, BackendCapabilities
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.model.view import ViewBlock, ViewSpec
from repro.db.aggregates import Aggregate
from repro.db.expressions import Expression, RowPartition, TruePredicate
from repro.db.query import AggregateQuery, FlagColumn, GroupingSetsQuery
from repro.db.table import Table
from repro.optimizer.binpack import pack_dimensions
from repro.optimizer.parallel import run_steps
from repro.optimizer.combine import GroupState, MergeSpec, dedup_aggregates, merge_spec
from repro.optimizer.extract import FLAG_NAME
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
            if view.dimension != self.dimension:
                raise ConfigError(
                    f"view {view.label!r} does not group by {self.dimension!r}"
                )

    @property
    def keys(self) -> tuple[str, ...]:
        """The group-by attribute names, as a tuple either way."""
        return self.views[0].keys

    @cached_property
    def merge_specs(self) -> tuple[MergeSpec, ...]:
        """Each view's decomposition, derived once per group."""
        return tuple(merge_spec(view.aggregate) for view in self.views)

    @cached_property
    def aux(self) -> tuple[Aggregate, ...]:
        """The deduped mergeable aggregates the views decompose into."""
        return dedup_aggregates(aux for spec in self.merge_specs for aux in spec.aux)

    @cached_property
    def own(self) -> tuple[Aggregate, ...]:
        """The views' own aggregates, deduped."""
        return dedup_aggregates(view.aggregate for view in self.views)


@dataclass(frozen=True)
class ExecutionStep:
    """One unit of plan execution (independent of any other step).

    ``groups`` run together: one group when ``sharing`` is ``NONE``,
    several dimensions in one GROUPING SETS query (a shared scan where the
    backend supports it), or several in one multi-attribute ``ROLLUP``
    group-by that each group folds onto its own keys. ``combine_flag`` folds
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

    @property
    def merged(self) -> bool:
        """Whether results merge afterwards: flag partitions, rollup rows or
        row partitions."""
        rollup = self.sharing is GroupByCombining.ROLLUP
        return self.combine_flag or self.partition is not None or rollup

    def aggregates(self) -> tuple[Aggregate, ...]:
        """What every query of the step computes: the decomposed mergeable
        aggregates wherever results are merged afterwards, else the views'
        own aggregates."""
        return self.queries()[0].aggregates

    def queries(self) -> list:
        """The logical queries this step will issue (for costing/tests)."""
        return self._queries

    @cached_property
    def _queries(self) -> list:
        aggregates = dedup_aggregates(
            aggregate
            for group in self.groups
            for aggregate in (group.aux if self.merged else group.own)
        )
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

    def fetch(self, backend: Backend) -> "list[tuple[Table, ...]]":
        """Execute against ``backend``: per group in order, its results —
        ``(combined,)`` when flag-combined, else ``(target, comparison)``."""
        return list(zip(*(self._group_results(backend, query) for query in self.queries())))

    def fold(
        self, fetched: "list[tuple[Table, ...]]", states: "dict[ViewGroup, GroupState]"
    ) -> None:
        """Fold fetched results into each group's state in ``states``, made
        on first use; a phased run folds every round into the same states.
        A flag-combined result's flag=1 rows are the target side and its
        flag=0 rows the rest; a (target, comparison) pair lands one per side."""
        for group, results in zip(self.groups, fetched):
            if group not in states:
                states[group] = GroupState(group, self.merged)
            state = states[group]
            sides = [state.read(table) for table in results]
            if len(sides) == 1:
                (positions, values), (combined,) = sides[0], results
                flags = np.asarray(combined.column(FLAG_NAME))
                sides = [(positions[f], values[:, f]) for f in (flags == 1, flags == 0)]
            for side, (positions, values) in enumerate(sides):
                state.fold(side, positions, values)

    def run(self, backend: Backend) -> list[ViewBlock]:
        """Execute against ``backend``; one view block per group."""
        states: dict[ViewGroup, GroupState] = {}
        self.fold(self.fetch(backend), states)
        return [states[group].block(self.merges_sides) for group in self.groups]

    def _group_results(self, backend: Backend, query) -> list[Table]:
        """Run one side's query; one result table per group, in order. A
        rollup result serves every group, each folding it onto its keys."""
        if self.sharing is GroupByCombining.GROUPING_SETS:
            return backend.execute_grouping_sets(query)
        return [backend.execute(query)] * len(self.groups)

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

    def run(self, backend: Backend, n_workers: int = 1) -> list[ViewBlock]:
        """Execute all steps, on up to ``n_workers`` pool threads; one view
        block per group, in step order (see :func:`run_steps`)."""
        return run_steps(self.steps, backend, n_workers)

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

    ``declared`` says whether a backend's capabilities put this kind first
    among ``AUTO``'s candidates, where it wins ties; ``arrange`` partitions
    the groups into the per-step bins (a bin of one runs unshared).
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
    bins = _packed(
        tuple(
            (dimension, cardinalities.get(dimension, budget + 1))
            for dimension in by_dimension
        ),
        budget,
        config.max_dims_per_query,
    )
    return [[by_dimension[name] for name in members] for members in bins]


@lru_cache(maxsize=1024)
def _packed(items, budget, max_dims):
    """The bins of :func:`pack_dimensions`, remembered: requests on one
    table pack the same few dimension sets at the same few budgets."""
    return pack_dimensions(
        dict(items), budget_cells=budget, max_dims_per_bin=max_dims
    ).bins


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


#: The rollup budgets, in result cells per query, at which ``AUTO`` prices
#: a rollup plan: pairs, then triples, of low-cardinality dimensions. A
#: bigger budget packs more dimensions per scan, but past a few thousand
#: cells the result rows each view group folds cost more than the scans
#: they save. A pinned ``ROLLUP`` packs at ``memory_budget_cells``.
ROLLUP_BUDGET_LADDER = (400, 1_000, 6_000)


def candidate_kinds(
    mode: GroupByCombining, capabilities: BackendCapabilities
) -> list[GroupByCombining]:
    """The plan kinds ``mode`` admits on a backend, preferred one first.

    A pinned mode admits itself. ``AUTO`` admits every row of
    :data:`PLAN_KINDS`, led by the first one the capabilities declare:
    the deterministic tie-break (equal predicted cost → this choice) when
    the cost model picks.
    """
    if mode is not GroupByCombining.AUTO:
        return [mode]
    declared = next(
        kind for kind, row in PLAN_KINDS.items() if row.declared(capabilities)
    )
    return [declared] + [kind for kind in PLAN_KINDS if kind is not declared]


@dataclass(frozen=True)
class Candidate:
    """One way the planner may arrange a request's view groups.

    ``name`` keys the candidate in ``plan_decision.candidate_seconds``:
    the kind's value, suffixed ``@<cells>`` for a rung of ``AUTO``'s
    rollup ladder; ``config`` is what the kind arranges groups with.
    """

    name: str
    kind: GroupByCombining
    config: PlannerConfig


class Planner:
    """Builds an :class:`ExecutionPlan` from views and optimizer toggles.

    Planning is three moves, so a cost-based caller can price many
    arrangements and build one: :meth:`group_views` once, the
    :data:`PLAN_KINDS` row's ``arrange`` per :meth:`candidates` entry,
    :meth:`build` for the chosen bins. :meth:`plan` chains them for a
    pinned kind; ``AUTO`` is resolved by pricing
    (:func:`~repro.optimizer.cost.choose_plan`).
    """

    def __init__(self, config: "PlannerConfig | None" = None):
        self.config = config if config is not None else PlannerConfig()

    def plan(
        self,
        views: list[ViewSpec],
        table: str,
        predicate: "Expression | None",
        cardinalities: dict[str, int],
        reference: ResolvedReference = TABLE_REFERENCE,
    ) -> ExecutionPlan:
        """Plan execution of ``views`` against ``table`` with the pinned
        kind of ``config.groupby_combining``.

        ``cardinalities`` (dimension -> distinct count) comes from the
        metadata collector and drives bin-packing. ``reference`` selects
        the comparison row set; a non-flag-combinable one (query-vs-query)
        forces separate target/comparison queries even when
        target/comparison combining is enabled. ``AUTO`` raises
        ``ValueError``: it is a choice among priced candidates, which
        :func:`~repro.optimizer.cost.choose_plan` makes.
        """
        kind = self.config.groupby_combining
        if kind is GroupByCombining.AUTO:
            raise ValueError(
                "Planner.plan takes a pinned kind; AUTO is priced by "
                "repro.optimizer.cost.choose_plan"
            )
        combine_flag = self.combine_flag(reference)
        groups = self.group_views(views, self.per_view(kind))
        bins = PLAN_KINDS[kind].arrange(groups, self.config, cardinalities, combine_flag)
        return self.build(bins, kind, table, predicate, combine_flag, reference)

    def candidates(self, capabilities: BackendCapabilities) -> list[Candidate]:
        """The arrangements the configured mode admits, preferred first: a
        pinned kind alone, or for ``AUTO`` every kind of
        :func:`candidate_kinds` with ``ROLLUP`` at each budget of
        :data:`ROLLUP_BUDGET_LADDER`."""
        config = self.config
        kinds = candidate_kinds(config.groupby_combining, capabilities)
        if len(kinds) == 1:
            return [Candidate(kinds[0].value, kinds[0], config)]
        candidates = []
        for kind in kinds:
            if kind is GroupByCombining.ROLLUP:
                candidates.extend(
                    Candidate(
                        f"{kind.value}@{cells}",
                        kind,
                        replace(config, memory_budget_cells=cells),
                    )
                    for cells in ROLLUP_BUDGET_LADDER
                )
            else:
                candidates.append(Candidate(kind.value, kind, config))
        return candidates

    def combine_flag(self, reference: ResolvedReference) -> bool:
        """Whether target and comparison share one flag-grouped query."""
        return self.config.combine_target_comparison and reference.flag_combinable

    def per_view(self, kind: GroupByCombining) -> bool:
        """Whether ``kind`` runs one view group per view: when neither
        aggregate nor group-by combining shares a query (a shared query
        necessarily carries all the aggregates)."""
        return not self.config.combine_aggregates and kind is GroupByCombining.NONE

    @staticmethod
    def group_views(views: list[ViewSpec], per_view: bool) -> list[ViewGroup]:
        """The view groups to arrange: one per dimension, or one per view."""
        if per_view:
            return [ViewGroup(view.dimension, (view,)) for view in views]
        grouped: dict["str | tuple[str, ...]", list[ViewSpec]] = {}
        for view in views:
            grouped.setdefault(view.dimension, []).append(view)
        return [
            ViewGroup(dimension, tuple(members))
            for dimension, members in grouped.items()
        ]

    @staticmethod
    def build(
        bins: list[list[ViewGroup]],
        kind: GroupByCombining,
        table: str,
        predicate: "Expression | None",
        combine_flag: bool,
        reference: ResolvedReference = TABLE_REFERENCE,
    ) -> ExecutionPlan:
        """The plan whose steps run ``bins``."""
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
