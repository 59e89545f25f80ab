"""Incremental execution as swappable Execute/Score phases.

The phased-execution scheme of §1 challenge (d) — interleaved row
partitions, running mergeable-aggregate state per view, Hoeffding-style
confidence pruning between phases — re-hosted on the shared engine.
:class:`PhasedExecutePhase` replaces the batch ``ExecutePhase`` and leaves
ordinary :class:`~repro.model.view.RawViewData` in the context, so the
standard View Processor / top-k phases finish the run: the incremental
path no longer carries private copies of align/normalize/score/top-k.

State is columnar: each :class:`DimensionState` keeps one dense
``(2 flags, n_groups)`` array per auxiliary aggregate, merged per phase
with vectorized scatter updates (one dict lookup per result row for the
key→column mapping; everything else is whole-array arithmetic), and the
per-phase utility re-estimates run through the shared batch scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.view_processor import ViewProcessor
from repro.db.aggregates import Aggregate
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.expressions import TruePredicate
from repro.db.query import AggregateQuery, FlagColumn
from repro.db.table import Table
from repro.engine.context import ExecutionContext
from repro.engine.phases import Phase, ScorePhase
from repro.metrics.normalize import canonical_key
from repro.model.view import RawViewData, ViewSpec
from repro.optimizer.combine import aux_aggregates, merge_spec
from repro.optimizer.extract import FLAG_NAME
from repro.testing.faults import fault_point

#: Metrics whose values are bounded in [0, 1], the precondition for the
#: Hoeffding-style pruning bound.
BOUNDED_METRICS = frozenset(
    {"js", "total_variation", "maxdev", "chisquare", "emd", "hellinger"}
)

#: Accumulation mode per auxiliary aggregate function.
_ACCUMULATE_ADD = frozenset({"sum", "count", "countv", "sumsq"})


@dataclass
class DimensionState:
    """Accumulated per-(flag, group) aux values for one dimension.

    Running partial distributions live in dense 2-D arrays: per auxiliary
    aggregate one ``(2, n_groups)`` value matrix (row = flag partition),
    plus one shared presence mask distinguishing "group never seen under
    this flag" from a genuine accumulated value. Columns are assigned in
    first-seen order and the sorted view of the key universe is cached
    between phases.
    """

    aux: tuple[Aggregate, ...]
    #: key -> column, in first-seen order.
    index: dict[Any, int] = field(default_factory=dict)
    #: Column's key, aligned with ``index`` values.
    keys: list[Any] = field(default_factory=list)
    #: alias -> (2, n_groups) accumulated values.
    data: dict[str, np.ndarray] = field(default_factory=dict)
    #: (2, n_groups) — whether a (flag, group) cell has been absorbed.
    present: np.ndarray = field(default_factory=lambda: np.zeros((2, 0), dtype=bool))
    _sorted_columns: "np.ndarray | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for aggregate in self.aux:
            self.data.setdefault(aggregate.alias, np.zeros((2, 0), dtype=np.float64))

    def absorb(self, result: Table, dimension: str) -> None:
        """Merge one phase's flag-combined result into the running state."""
        if result.num_rows == 0:
            return
        flags = np.asarray(result.column(FLAG_NAME)).astype(np.int64)
        self._absorb(flags, result, dimension)

    def absorb_partition(self, result: Table, dimension: str, flag: int) -> None:
        """Merge a single-side result (no flag column) under ``flag``.

        Query references issue separate target/reference queries per
        partition; their rows all land in one flag row of the state
        (1 = target, 0 = reference).
        """
        if result.num_rows == 0:
            return
        flags = np.full(result.num_rows, flag, dtype=np.int64)
        self._absorb(flags, result, dimension)

    def _absorb(self, flags: np.ndarray, result: Table, dimension: str) -> None:
        n_rows = result.num_rows
        raw_keys = result.column(dimension)
        index = self.index
        columns = np.empty(n_rows, dtype=np.int64)
        for i in range(n_rows):
            key = canonical_key(raw_keys[i])
            column = index.get(key)
            if column is None:
                column = len(index)
                index[key] = column
                self.keys.append(key)
                self._sorted_columns = None
            columns[i] = column
        self._grow(len(index))

        existing = self.present[flags, columns]
        new = ~existing
        for aggregate in self.aux:
            values = np.asarray(result.column(aggregate.alias), dtype=np.float64)
            data = self.data[aggregate.alias]
            if aggregate.func in _ACCUMULATE_ADD:
                # NaN partial sums never overwrite accumulated mass; a NaN
                # *first* value is kept verbatim (matching scalar merge).
                add = existing & ~np.isnan(values)
                data[flags[add], columns[add]] += values[add]
            else:
                merge = np.fmin if aggregate.func == "min" else np.fmax
                data[flags[existing], columns[existing]] = merge(
                    data[flags[existing], columns[existing]], values[existing]
                )
            data[flags[new], columns[new]] = values[new]
        self.present[flags, columns] = True

    def _grow(self, n_columns: int) -> None:
        current = self.present.shape[1]
        if n_columns <= current:
            return
        pad = n_columns - current
        self.present = np.pad(self.present, ((0, 0), (0, pad)))
        for alias, data in self.data.items():
            self.data[alias] = np.pad(data, ((0, 0), (0, pad)))

    def _ordered_columns(self) -> np.ndarray:
        """Column indices in sorted-key order (cached between phases)."""
        if self._sorted_columns is None:
            order = sorted(
                range(len(self.keys)),
                key=lambda column: (
                    type(self.keys[column]).__name__,
                    self.keys[column],
                ),
            )
            self._sorted_columns = np.asarray(order, dtype=np.int64)
        return self._sorted_columns

    def raw_view(
        self, view: ViewSpec, comparison_flags: tuple[int, ...] = (0, 1)
    ) -> RawViewData:
        """The view's target/comparison series reconstructed from state.

        ``comparison_flags`` selects which flag partitions make up the
        comparison side: ``(0, 1)`` merges both (the whole-table
        reference), ``(0,)`` takes the non-target partition alone
        (complement and query references). Returning :class:`RawViewData`
        is what lets the shared View Processor score incremental estimates
        exactly like batch results.
        """
        spec = merge_spec(view.aggregate)
        ordered = self._ordered_columns()
        if ordered.size:
            target_columns = ordered[self.present[1, ordered]]
            comparison_columns = ordered[
                self.present[list(comparison_flags)][:, ordered].any(axis=0)
            ]
        else:
            target_columns = comparison_columns = ordered
        target_keys = [self.keys[column] for column in target_columns]
        comparison_keys = [self.keys[column] for column in comparison_columns]
        return RawViewData(
            spec=view,
            target_keys=target_keys,
            target_values=spec.reconstruct(self._merged(target_columns, (1,))),
            comparison_keys=comparison_keys,
            comparison_values=spec.reconstruct(
                self._merged(comparison_columns, comparison_flags)
            ),
        )

    def _merged(
        self, columns: np.ndarray, flags: tuple[int, ...]
    ) -> dict[str, np.ndarray]:
        """{alias: values} over ``columns``, merged across ``flags``.

        Additive aggregates sum present cells (absent = neutral 0); extrema
        take the NaN-ignoring min/max with NaN as the absent fill — the
        vectorized form of the scalar per-cell merge.
        """
        rows = list(flags)
        arrays: dict[str, np.ndarray] = {}
        for aggregate in self.aux:
            data = self.data[aggregate.alias][rows][:, columns]
            present = self.present[rows][:, columns]
            if aggregate.func in _ACCUMULATE_ADD:
                merged = np.where(present, data, 0.0).sum(axis=0)
            else:
                stacked = np.where(present, data, np.nan)
                merge = np.fmin if aggregate.func == "min" else np.fmax
                merged = merge.reduce(stacked, axis=0)
            arrays[aggregate.alias] = np.asarray(merged, dtype=np.float64)
        return arrays


@dataclass
class IncrementalTrace:
    """Side outputs of a phased run, stored in ``ctx.extras``."""

    #: Last utility estimate of every view, pruned ones included.
    utilities: dict[ViewSpec, float] = field(default_factory=dict)
    #: Views dropped early: spec -> phase index at which they were pruned.
    pruned_at_phase: dict[ViewSpec, int] = field(default_factory=dict)
    phases_executed: int = 0
    n_phases: int = 0
    work_done: int = 0
    work_possible: int = 0


#: ``ctx.extras`` key under which the trace is published.
TRACE_KEY = "incremental"


@dataclass
class IncrementalRound:
    """One executed phase of a phased run (the streaming unit).

    ``scored`` holds the current utility estimates of every still-alive
    view — :class:`~repro.model.view.ScoredView` objects from the shared
    batch scorer, so partial rounds carry real distributions, not just
    numbers. ``epsilon`` is the Hoeffding half-width used for pruning this
    round (None while pruning is inactive).
    """

    phase: int
    n_phases: int
    scored: dict
    views_alive: int
    views_pruned: int
    epsilon: "float | None" = None


class PhasedExecutePhase(Phase):
    """Execute view queries one partition at a time with early pruning.

    Partitions are interleaved row slices (row ``i`` belongs to phase
    ``i mod n_phases``), so each phase is an unbiased sample. Pruning uses
    Hoeffding-style confidence intervals: view ``V`` is dropped after phase
    ``m`` when ``u_m(V) + ε_m < L`` where ``L`` is the k-th largest lower
    bound and ``ε_m = epsilon_scale * sqrt(ln(2/δ) / (2m))`` — valid for
    metrics bounded in [0, 1].
    """

    name = "execute"

    def __init__(
        self,
        table: "Table | None" = None,
        n_phases: int = 10,
        delta: float = 0.05,
        min_phases_before_pruning: int = 2,
        epsilon_scale: float = 0.25,
        metric=None,
        normalization=None,
    ):
        self.table = table
        self.n_phases = n_phases
        self.delta = delta
        self.min_phases_before_pruning = min_phases_before_pruning
        self.epsilon_scale = epsilon_scale
        self.metric = metric
        self.normalization = normalization

    def run(self, ctx: ExecutionContext) -> None:
        for _round in self.rounds(ctx):
            pass

    def rounds(self, ctx: ExecutionContext):
        """Drive phased execution, yielding one :class:`IncrementalRound`
        per executed phase — the progressive-delivery hook behind
        :meth:`repro.SeeDB.recommend_iter`. Exhausting the generator
        finalizes ``ctx.raw_views`` exactly like :meth:`run`.

        The context's reference selects the comparison side: table and
        complement references share the flag-combined per-phase query
        (comparison = both partitions merged, or flag=0 alone); a query
        reference issues separate target/reference queries per phase —
        the two selections may overlap, which one 0/1 flag cannot encode.
        """
        views = list(ctx.surviving)
        trace = IncrementalTrace(
            n_phases=self.n_phases, work_possible=len(views) * self.n_phases
        )
        ctx.extras[TRACE_KEY] = trace
        if not views:
            return
        table = self.table if self.table is not None else self._fetch(ctx)
        reference = ctx.reference
        comparison_flags = (0, 1) if reference.merge_partitions else (0,)
        predicate = (
            ctx.query.predicate
            if ctx.query.predicate is not None
            else TruePredicate()
        )
        metric = (
            self.metric if self.metric is not None else ctx.config.resolve_metric()
        )
        normalization = (
            self.normalization
            if self.normalization is not None
            else ctx.config.normalization
        )
        processor = ViewProcessor(metric, normalization)

        groups: dict[str, list[ViewSpec]] = {}
        for view in views:
            groups.setdefault(view.dimension, []).append(view)
        states = {
            dimension: DimensionState(aux=aux_aggregates(members))
            for dimension, members in groups.items()
        }

        alive: set[ViewSpec] = set(views)
        k = ctx.k
        indices = np.arange(table.num_rows)
        token = ctx.cancel_token
        for phase in range(self.n_phases):
            # Chaos seam: phased queries run on a local engine, so this is
            # the round-granular injection point the backend-level hook
            # cannot cover. Placed before the token check so an injected
            # stall is *observed* by the deadline logic, like real slowness.
            fault_point("engine.round")
            if token is not None:
                # Explicit cancellation always aborts; deadline expiry
                # degrades gracefully once at least one unbiased round has
                # been absorbed — the best current top-k ships marked
                # partial, with the Hoeffding ε saying how far any
                # estimate can still move.
                token.check_cancel()
                if token.expired():
                    if trace.phases_executed >= 1:
                        ctx.partial = True
                        ctx.partial_epsilon = self.epsilon_scale * math.sqrt(
                            math.log(2.0 / self.delta)
                            / (2.0 * trace.phases_executed)
                        )
                        break
                    token.check()
            active_dimensions = {v.dimension for v in alive}
            if not active_dimensions:
                break
            partition = table.take(indices[phase :: self.n_phases], name="__phase")
            catalog = Catalog()
            catalog.register(partition)
            engine = Engine(catalog)
            flag = FlagColumn(FLAG_NAME, predicate)
            for dimension in sorted(active_dimensions):
                state = states[dimension]
                if reference.flag_combinable:
                    result = engine.execute(
                        AggregateQuery("__phase", (flag, dimension), state.aux, None)
                    )
                    assert isinstance(result, Table)
                    state.absorb(result, dimension)
                else:
                    target_result = engine.execute(
                        AggregateQuery(
                            "__phase", (dimension,), state.aux, ctx.query.predicate
                        )
                    )
                    reference_result = engine.execute(
                        AggregateQuery(
                            "__phase", (dimension,), state.aux, reference.predicate
                        )
                    )
                    assert isinstance(target_result, Table)
                    assert isinstance(reference_result, Table)
                    state.absorb_partition(target_result, dimension, flag=1)
                    state.absorb_partition(reference_result, dimension, flag=0)
                trace.work_done += sum(1 for v in groups[dimension] if v in alive)
            trace.phases_executed = phase + 1

            # Re-estimate utilities for alive views via the shared batch
            # scorer (one dense block per dimension, not one call per view).
            estimates = processor.score_batch(
                [
                    states[view.dimension].raw_view(view, comparison_flags)
                    for view in alive
                ]
            )
            for view, scored in estimates.items():
                trace.utilities[view] = scored.utility

            # Hoeffding-style pruning once enough phases accumulated.
            epsilon = None
            if (
                trace.phases_executed >= self.min_phases_before_pruning
                and trace.phases_executed < self.n_phases
                and len(alive) > k
            ):
                epsilon = self.epsilon_scale * math.sqrt(
                    math.log(2.0 / self.delta) / (2.0 * trace.phases_executed)
                )
                lower_bounds = sorted(
                    (trace.utilities[view] - epsilon for view in alive), reverse=True
                )
                threshold = lower_bounds[k - 1] if len(lower_bounds) >= k else -1.0
                for view in list(alive):
                    if trace.utilities[view] + epsilon < threshold:
                        alive.discard(view)
                        trace.pruned_at_phase[view] = trace.phases_executed

            yield IncrementalRound(
                phase=trace.phases_executed,
                n_phases=self.n_phases,
                scored={view: estimates[view] for view in alive},
                views_alive=len(alive),
                views_pruned=len(trace.pruned_at_phase),
                epsilon=epsilon,
            )

        ctx.raw_views = {
            view: states[view.dimension].raw_view(view, comparison_flags)
            for view in views
            if view in alive
        }

    @staticmethod
    def _fetch(ctx: ExecutionContext) -> Table:
        # Deliberately NOT ctx.base_table: MetadataPhase materializes that
        # capped at config.metadata_max_rows (a row *prefix*, fine for
        # statistics, biased for execution). Phased execution needs the
        # full table.
        return ctx.cache.base_table(ctx.query.table, max_rows=None)


class IncrementalScorePhase(ScorePhase):
    """Standard scoring, plus folding final utilities back into the trace.

    Scored utilities equal the last running estimates by construction
    (both come from the same accumulated state through the same View
    Processor); the fold keeps the published trace exact.
    """

    def run(self, ctx: ExecutionContext) -> None:
        super().run(ctx)
        trace = ctx.extras.get(TRACE_KEY)
        if isinstance(trace, IncrementalTrace):
            for spec, scored in ctx.scored.items():
                trace.utilities[spec] = scored.utility
