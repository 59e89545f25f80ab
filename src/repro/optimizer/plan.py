"""Execution plans: how view queries are combined and executed.

The Planner maps candidate views + optimizer toggles onto a list of
:class:`ExecutionStep` objects. Each step knows its logical queries and how
to extract per-view raw series from their results. Step types, from no
sharing to maximal sharing:

* :class:`SeparateStep` — target and comparison as two queries (basic
  framework; with aggregate-combining the group still shares one pair).
* :class:`FlagStep` — one query ``GROUP BY (flag, a)`` serving both sides.
* :class:`MultiDimStep` — several dimensions in one GROUPING SETS query
  (shared scan where the backend supports it).
* :class:`RollupStep` — several dimensions in one multi-attribute group-by,
  marginalized in post-processing; dimension sets chosen by bin-packing
  under the working-memory budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.backends.base import Backend, BackendCapabilities
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.model.view import RawViewData, ViewSpec
from repro.db.aggregates import Aggregate
from repro.db.expressions import Expression, TruePredicate
from repro.db.query import AggregateQuery, FlagColumn, GroupingSetsQuery
from repro.optimizer.binpack import pack_dimensions
from repro.util.deadline import check_current
from repro.optimizer.combine import dedup_aggregates, merge_spec
from repro.optimizer.extract import (
    FLAG_NAME,
    marginalize,
    raw_from_flag_table,
    raw_from_separate_tables,
)
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class ViewGroup:
    """Views sharing one group-by dimension (the unit of aggregate combining)."""

    dimension: str
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
    def direct_aggregates(self) -> tuple[Aggregate, ...]:
        """The views' own aggregates, deduped (for separate-query plans)."""
        return dedup_aggregates([view.aggregate for view in self.views])

    @property
    def aux_aggregates(self) -> tuple[Aggregate, ...]:
        """Decomposed mergeable aggregates, deduped (for shared plans)."""
        collected: list[Aggregate] = []
        for view in self.views:
            collected.extend(merge_spec(view.aggregate).aux)
        return dedup_aggregates(collected)


class ExecutionStep:
    """One unit of plan execution (independent of any other step)."""

    table: str

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        raise NotImplementedError

    def queries(self) -> list:
        """The logical queries this step will issue (for costing/tests)."""
        raise NotImplementedError

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        """Execute against ``backend`` and extract per-view raw series."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class SeparateStep(ExecutionStep):
    """Target and comparison view queries executed independently.

    The comparison query's row set is the step's reference: the whole
    table (predicate None, §2), the target's complement, or an arbitrary
    second selection (query-vs-query).
    """

    table: str
    predicate: "Expression | None"
    group: ViewGroup
    reference: ResolvedReference = TABLE_REFERENCE

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return self.group.views

    def queries(self) -> list:
        aggregates = self.group.direct_aggregates
        return [
            AggregateQuery(
                self.table, (self.group.dimension,), aggregates, self.predicate
            ),
            AggregateQuery(
                self.table,
                (self.group.dimension,),
                aggregates,
                self.reference.predicate,
            ),
        ]

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        target_query, comparison_query = self.queries()
        target_result = backend.execute(target_query)
        comparison_result = backend.execute(comparison_query)
        return raw_from_separate_tables(
            target_result, comparison_result, self.group.dimension, self.group.views
        )

    def describe(self) -> str:
        return (
            f"separate[{self.group.dimension}: "
            f"{len(self.group.views)} view(s), 2 queries]"
        )


@dataclass
class FlagStep(ExecutionStep):
    """One combined query ``GROUP BY (flag, a)`` for target + comparison.

    Only flag-combinable references run through this step: ``table``
    merges both partitions into the comparison, ``complement`` takes the
    flag=0 partition alone.
    """

    table: str
    predicate: "Expression | None"
    group: ViewGroup
    reference: ResolvedReference = TABLE_REFERENCE

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return self.group.views

    def _flag(self) -> FlagColumn:
        predicate = self.predicate if self.predicate is not None else TruePredicate()
        return FlagColumn(FLAG_NAME, predicate)

    def queries(self) -> list:
        return [
            AggregateQuery(
                self.table,
                (self._flag(), self.group.dimension),
                self.group.aux_aggregates,
                None,
            )
        ]

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        (query,) = self.queries()
        result = backend.execute(query)
        return raw_from_flag_table(
            result,
            self.group.dimension,
            self.group.views,
            merge=self.reference.merge_partitions,
        )

    def describe(self) -> str:
        return (
            f"flag[{self.group.dimension}: "
            f"{len(self.group.views)} view(s), 1 query]"
        )


@dataclass
class MultiFlagStep(ExecutionStep):
    """One flag-combined query grouped by a *tuple* of dimensions.

    The execution unit of the multi-attribute generalization (§2): all
    views sharing one dimension combination run as a single
    ``GROUP BY (flag, a1, ..., ak)`` query whose result is post-processed
    into per-view tuple-keyed series. Views are duck-typed — any spec with
    ``aggregate`` and a matching ``dimensions`` tuple works.
    """

    table: str
    predicate: "Expression | None"
    dimensions: tuple[str, ...]
    view_specs: tuple
    reference: ResolvedReference = TABLE_REFERENCE

    def __post_init__(self) -> None:
        if not self.view_specs:
            raise ConfigError("a multi-dimension step needs at least one view")
        for view in self.view_specs:
            if tuple(view.dimensions) != self.dimensions:
                raise ConfigError(
                    f"view {view.label!r} does not group by {self.dimensions!r}"
                )

    @property
    def views(self) -> tuple:
        return self.view_specs

    def _aggregates(self) -> tuple[Aggregate, ...]:
        collected: list[Aggregate] = []
        for view in self.view_specs:
            collected.extend(merge_spec(view.aggregate).aux)
        return dedup_aggregates(collected)

    def queries(self) -> list:
        predicate = self.predicate if self.predicate is not None else TruePredicate()
        flag = FlagColumn(FLAG_NAME, predicate)
        return [
            AggregateQuery(
                self.table, (flag,) + self.dimensions, self._aggregates(), None
            )
        ]

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        (query,) = self.queries()
        result = backend.execute(query)
        return raw_from_flag_table(
            result,
            self.dimensions,
            self.view_specs,
            merge=self.reference.merge_partitions,
        )

    def describe(self) -> str:
        return (
            f"multi_flag[{list(self.dimensions)}: "
            f"{len(self.view_specs)} view(s), 1 query]"
        )


@dataclass
class MultiDimStep(ExecutionStep):
    """Several dimensions per query via GROUPING SETS."""

    table: str
    predicate: "Expression | None"
    groups: tuple[ViewGroup, ...]
    combine_flag: bool
    reference: ResolvedReference = TABLE_REFERENCE

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return tuple(view for group in self.groups for view in group.views)

    def _flag(self) -> FlagColumn:
        predicate = self.predicate if self.predicate is not None else TruePredicate()
        return FlagColumn(FLAG_NAME, predicate)

    def _aggregates(self) -> tuple[Aggregate, ...]:
        collected: list[Aggregate] = []
        for group in self.groups:
            collected.extend(
                group.aux_aggregates if self.combine_flag else group.direct_aggregates
            )
        return dedup_aggregates(collected)

    def queries(self) -> list:
        aggregates = self._aggregates()
        if self.combine_flag:
            flag = self._flag()
            sets = tuple((flag, group.dimension) for group in self.groups)
            return [GroupingSetsQuery(self.table, sets, aggregates, None)]
        sets = tuple((group.dimension,) for group in self.groups)
        return [
            GroupingSetsQuery(self.table, sets, aggregates, self.predicate),
            GroupingSetsQuery(
                self.table, sets, aggregates, self.reference.predicate
            ),
        ]

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        extracted: dict[ViewSpec, RawViewData] = {}
        if self.combine_flag:
            (query,) = self.queries()
            results = backend.execute_grouping_sets(query)
            for group, result in zip(self.groups, results):
                extracted.update(
                    raw_from_flag_table(
                        result,
                        group.dimension,
                        group.views,
                        merge=self.reference.merge_partitions,
                    )
                )
            return extracted
        target_query, comparison_query = self.queries()
        target_results = backend.execute_grouping_sets(target_query)
        comparison_results = backend.execute_grouping_sets(comparison_query)
        for group, target_result, comparison_result in zip(
            self.groups, target_results, comparison_results
        ):
            extracted.update(
                raw_from_separate_tables(
                    target_result, comparison_result, group.dimension, group.views
                )
            )
        return extracted

    def describe(self) -> str:
        dimensions = [group.dimension for group in self.groups]
        n_queries = 1 if self.combine_flag else 2
        return f"grouping_sets[{dimensions}, {n_queries} query(ies)]"


@dataclass
class RollupStep(ExecutionStep):
    """One multi-attribute group-by, marginalized per dimension afterwards."""

    table: str
    predicate: "Expression | None"
    groups: tuple[ViewGroup, ...]
    combine_flag: bool
    reference: ResolvedReference = TABLE_REFERENCE

    @property
    def views(self) -> tuple[ViewSpec, ...]:
        return tuple(view for group in self.groups for view in group.views)

    def _flag(self) -> FlagColumn:
        predicate = self.predicate if self.predicate is not None else TruePredicate()
        return FlagColumn(FLAG_NAME, predicate)

    def _aggregates(self) -> tuple[Aggregate, ...]:
        collected: list[Aggregate] = []
        for group in self.groups:
            collected.extend(group.aux_aggregates)
        return dedup_aggregates(collected)

    def _dimensions(self) -> tuple[str, ...]:
        return tuple(group.dimension for group in self.groups)

    def queries(self) -> list:
        aggregates = self._aggregates()
        if self.combine_flag:
            group_by = (self._flag(),) + self._dimensions()
            return [AggregateQuery(self.table, group_by, aggregates, None)]
        return [
            AggregateQuery(self.table, self._dimensions(), aggregates, self.predicate),
            AggregateQuery(
                self.table,
                self._dimensions(),
                aggregates,
                self.reference.predicate,
            ),
        ]

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        aggregates = self._aggregates()
        extracted: dict[ViewSpec, RawViewData] = {}
        if self.combine_flag:
            (query,) = self.queries()
            rollup = backend.execute(query)
            for group in self.groups:
                marginal = marginalize(
                    rollup, group.dimension, aggregates, flag_name=FLAG_NAME
                )
                extracted.update(
                    raw_from_flag_table(
                        marginal,
                        group.dimension,
                        group.views,
                        merge=self.reference.merge_partitions,
                    )
                )
            return extracted
        target_query, comparison_query = self.queries()
        target_rollup = backend.execute(target_query)
        comparison_rollup = backend.execute(comparison_query)
        for group in self.groups:
            target_marginal = marginalize(target_rollup, group.dimension, aggregates)
            comparison_marginal = marginalize(
                comparison_rollup, group.dimension, aggregates
            )
            extracted.update(
                raw_from_separate_tables(
                    target_marginal,
                    comparison_marginal,
                    group.dimension,
                    group.views,
                    use_aux=True,
                )
            )
        return extracted

    def describe(self) -> str:
        n_queries = 1 if self.combine_flag else 2
        return f"rollup[{list(self._dimensions())}, {n_queries} query(ies)]"


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

    def run(self, backend: Backend) -> dict[ViewSpec, RawViewData]:
        """Execute all steps sequentially."""
        extracted: dict[ViewSpec, RawViewData] = {}
        for step in self.steps:
            # Per-step checkpoint: abort a cancelled multi-step plan at a
            # step boundary even when the backend has no finer-grained one.
            check_current()
            extracted.update(step.run(backend))
        return extracted

    def describe(self) -> str:
        lines = [f"plan: {len(self.steps)} step(s), {self.total_queries()} query(ies)"]
        lines.extend(f"  {step.describe()}" for step in self.steps)
        return "\n".join(lines)


class GroupByCombining(enum.Enum):
    """Strategy for the "Combine Multiple Group-bys" optimization."""

    NONE = "none"
    GROUPING_SETS = "grouping_sets"
    ROLLUP = "rollup"
    AUTO = "auto"  # grouping sets if the backend supports them, else rollup


def resolve_auto_mode(
    mode: GroupByCombining, capabilities: BackendCapabilities
) -> GroupByCombining:
    """The static capability-declared resolution of ``AUTO``.

    Shared-scan GROUPING SETS iff the backend declares them, rollup
    otherwise. It is always the first candidate of
    :class:`repro.engine.phases.PlanPhase`: the only one when
    ``config.cost_based_planning`` is off, and the deterministic tie-break
    (equal predicted cost → this choice) when the cost model picks.
    """
    if mode is not GroupByCombining.AUTO:
        return mode
    return (
        GroupByCombining.GROUPING_SETS
        if capabilities.grouping_sets
        else GroupByCombining.ROLLUP
    )


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
    #: Use the exact bin-packing solver up to this many dimensions.
    binpack_exact_threshold: int = 12

    def __post_init__(self) -> None:
        if self.memory_budget_cells < 2:
            raise ConfigError("memory_budget_cells must be >= 2")
        if self.max_dims_per_query < 1:
            raise ConfigError("max_dims_per_query must be >= 1")


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
        reference: "ResolvedReference | None" = None,
    ) -> ExecutionPlan:
        """Plan execution of ``views`` against ``table``.

        ``cardinalities`` (dimension -> distinct count) comes from the
        metadata collector and drives bin-packing; a dimension missing from
        it is conservatively treated as too large to share a rollup.
        ``reference`` selects the comparison row set (defaults to the whole
        table); a non-flag-combinable reference (query-vs-query) forces
        separate target/comparison queries even when target/comparison
        combining is enabled — one 0/1 flag cannot partition two possibly
        overlapping selections.
        """
        if not views:
            return ExecutionPlan(steps=[])
        if reference is None:
            reference = TABLE_REFERENCE
        config = self.config
        combine_flag = config.combine_target_comparison and reference.flag_combinable
        mode = resolve_auto_mode(config.groupby_combining, capabilities)

        # Group-by combining subsumes aggregate combining within its merged
        # queries (a shared query necessarily carries all the aggregates).
        by_dimension = config.combine_aggregates or mode is not GroupByCombining.NONE
        groups = self._group_views(views, by_dimension)

        if mode is GroupByCombining.NONE:
            return ExecutionPlan(
                steps=[
                    self._single_group_step(
                        g, table, predicate, reference, combine_flag
                    )
                    for g in groups
                ]
            )

        if mode is GroupByCombining.GROUPING_SETS:
            steps: list[ExecutionStep] = []
            for chunk in _chunks(groups, config.max_dims_per_query):
                if len(chunk) == 1:
                    steps.append(
                        self._single_group_step(
                            chunk[0], table, predicate, reference, combine_flag
                        )
                    )
                else:
                    steps.append(
                        MultiDimStep(
                            table=table,
                            predicate=predicate,
                            groups=tuple(chunk),
                            combine_flag=combine_flag,
                            reference=reference,
                        )
                    )
            return ExecutionPlan(steps=steps)

        # ROLLUP: bin-pack dimensions under the memory budget. The flag
        # column doubles the group count, so halve the budget when combined.
        budget = config.memory_budget_cells
        if combine_flag:
            budget = max(budget // 2, 2)
        group_by_dimension = {group.dimension: group for group in groups}
        packing_cards = {
            dimension: cardinalities.get(dimension, budget + 1)
            for dimension in group_by_dimension
        }
        packed = pack_dimensions(
            packing_cards,
            budget_cells=budget,
            max_dims_per_bin=config.max_dims_per_query,
            exact_threshold=config.binpack_exact_threshold,
        )
        steps = []
        for bin_members in packed.bins:
            bin_groups = tuple(group_by_dimension[name] for name in bin_members)
            if len(bin_groups) == 1:
                steps.append(
                    self._single_group_step(
                        bin_groups[0], table, predicate, reference, combine_flag
                    )
                )
            else:
                steps.append(
                    RollupStep(
                        table=table,
                        predicate=predicate,
                        groups=bin_groups,
                        combine_flag=combine_flag,
                        reference=reference,
                    )
                )
        return ExecutionPlan(steps=steps)

    def _single_group_step(
        self,
        group: ViewGroup,
        table: str,
        predicate: "Expression | None",
        reference: ResolvedReference = TABLE_REFERENCE,
        combine_flag: "bool | None" = None,
    ) -> ExecutionStep:
        if combine_flag is None:
            combine_flag = (
                self.config.combine_target_comparison and reference.flag_combinable
            )
        if combine_flag:
            return FlagStep(
                table=table, predicate=predicate, group=group, reference=reference
            )
        return SeparateStep(
            table=table, predicate=predicate, group=group, reference=reference
        )

    @staticmethod
    def _group_views(views: list[ViewSpec], by_dimension: bool) -> list[ViewGroup]:
        if not by_dimension:
            return [ViewGroup(view.dimension, (view,)) for view in views]
        grouped: dict[str, list[ViewSpec]] = {}
        for view in views:
            grouped.setdefault(view.dimension, []).append(view)
        return [
            ViewGroup(dimension, tuple(members))
            for dimension, members in grouped.items()
        ]


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]
