"""Incremental execution as swappable Execute/Score phases.

The phased-execution scheme of §1 challenge (d) — interleaved row
partitions, running mergeable aggregates per view group, Hoeffding-style
confidence pruning between phases — hosted on the shared engine and the
shared plan. :class:`PhasedExecutePhase` replaces the batch
``ExecutePhase`` and runs ``ctx.plan`` once per round, every step
restricted to that round's :class:`~repro.db.expressions.RowPartition`:
each view query of a phased run is issued to the backend by
:meth:`~repro.optimizer.plan.ExecutionStep.fetch`, so rounds share scans
and are priced, counted and interruptible like a blocking run. A round's
result tables are folded into the group's running ones with the rollup
merge (:func:`fold_partition`), read back with the batch extractor, and
re-estimated through the shared batch scorer; ordinary
:class:`~repro.model.view.RawViewData` is left in the context, so the
standard View Processor / top-k phases finish the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.db.expressions import RowPartition
from repro.db.table import Table
from repro.engine.context import ExecutionContext
from repro.engine.phases import Phase, PlanPhase, ScorePhase
from repro.model.view import RawViewData, ViewSpec
from repro.optimizer.extract import FLAG_NAME, extract_views, marginalize
from repro.optimizer.plan import ViewGroup
from repro.testing.faults import fault_point
from repro.util.errors import DeadlineExceeded

#: Metrics whose values are bounded in [0, 1], the precondition for the
#: Hoeffding-style pruning bound.
BOUNDED_METRICS = frozenset(
    {"js", "total_variation", "maxdev", "chisquare", "emd", "hellinger"}
)


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


def fold_partition(running, tables, keys, aggregates, flag_name=None):
    """Fold one partition's result ``tables`` (one per side, as
    :meth:`ExecutionStep.fetch` returns them for a group) into the group's
    ``running`` ones (None before the first partition).

    The rollup merge over old ++ new rows, side by side. The first
    partition is folded too, so a SQL ``SUM`` over an all-NULL slice
    (NULL) is the additive identity by the time it reaches an estimate. A
    shared step whose other groups died carries fewer aggregates than the
    rounds before it: the running rows are projected onto the new columns.
    """
    if running is not None:
        tables = tuple(
            old.select_columns(new.schema.names).concat(new)
            for old, new in zip(running, tables)
        )
    return tuple(marginalize(table, keys, aggregates, flag_name) for table in tables)


class PhasedExecutePhase(Phase):
    """Execute the plan one row partition at a time with early pruning.

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
        n_phases: int = 10,
        delta: float = 0.05,
        min_phases_before_pruning: int = 2,
        epsilon_scale: float = 0.25,
        metric=None,
        normalization=None,
    ):
        self.n_phases = n_phases
        self.delta = delta
        self.min_phases_before_pruning = min_phases_before_pruning
        self.epsilon_scale = epsilon_scale
        self.metric = metric
        self.normalization = normalization

    def run(self, ctx: ExecutionContext) -> None:
        for _round in self.rounds(ctx):
            pass

    def epsilon(self, m: int) -> float:
        """The Hoeffding half-width ε_m after ``m`` executed phases."""
        return self.epsilon_scale * math.sqrt(math.log(2.0 / self.delta) / (2.0 * m))

    def rounds(self, ctx: ExecutionContext):
        """Drive phased execution, yielding one :class:`IncrementalRound`
        per executed phase — the progressive-delivery hook behind
        :meth:`repro.SeeDB.recommend_iter`. Exhausting the generator
        finalizes ``ctx.raw_views`` exactly like :meth:`run`.

        Every round executes the steps of ``ctx.plan``, trimmed to the
        groups with a view still alive, on ``ctx.backend``: sharing and the
        reference's query shape (one flag-combined query or a
        target/reference pair) are whatever ``PlanPhase`` chose. A
        hand-assembled phase list without one is planned here.
        """
        views = list(ctx.surviving)
        trace = IncrementalTrace(
            n_phases=self.n_phases, work_possible=len(views) * self.n_phases
        )
        ctx.extras[TRACE_KEY] = trace
        if not views:
            return
        if ctx.plan is None:
            PlanPhase().run(ctx)
        processor = ScorePhase(self.metric, self.normalization).processor(ctx)
        merge = ctx.reference.merge_partitions

        #: Per view group, its accumulated result table(s) so far.
        running: dict[ViewGroup, tuple[Table, ...]] = {}
        raw: dict[ViewSpec, RawViewData] = {}
        alive: set[ViewSpec] = set(views)
        token = ctx.cancel_token
        for phase in range(self.n_phases):
            # Chaos seam: a stalled or failing *round* (the backend seam
            # covers single statements). Placed before the token check so an
            # injected stall is observed by the deadline logic, like real
            # slowness.
            fault_point("engine.round")
            if token is not None:
                token.check_cancel()
                if token.expired() and self._degrade(ctx, trace):
                    break
                token.check()
            if not alive:
                break
            partition = RowPartition(phase, self.n_phases)
            steps = []
            for step in ctx.plan.steps:
                groups = tuple(g for g in step.groups if not alive.isdisjoint(g.views))
                if groups:
                    steps.append(replace(step, groups=groups, partition=partition))
            try:
                fetched = [step.fetch(ctx.backend) for step in steps]
            except DeadlineExceeded:
                # The backend's interrupt fired inside the round: drop it
                # whole (state only ever holds complete rounds) and apply
                # the between-rounds rule.
                if self._degrade(ctx, trace):
                    break
                raise
            raw = {}
            for step, (aggregates, results) in zip(steps, fetched):
                flag_name = FLAG_NAME if step.combine_flag else None
                for group, tables in zip(step.groups, results):
                    running[group] = fold_partition(
                        running.get(group), tables, group.keys, aggregates, flag_name
                    )
                    survivors = tuple(v for v in group.views if v in alive)
                    raw.update(
                        extract_views(
                            running[group], group.dimension, survivors, aggregates, merge
                        )
                    )
                    trace.work_done += len(survivors)
            trace.phases_executed = phase + 1

            # Re-estimate utilities for alive views via the shared batch
            # scorer (one dense block per dimension, not one call per view).
            estimates = processor.score_batch(raw)
            for view, scored in estimates.items():
                trace.utilities[view] = scored.utility

            # Hoeffding-style pruning once enough phases accumulated.
            epsilon = None
            if (
                trace.phases_executed >= self.min_phases_before_pruning
                and trace.phases_executed < self.n_phases
                and len(alive) > ctx.k
            ):
                epsilon = self.epsilon(trace.phases_executed)
                lower_bounds = sorted(
                    (trace.utilities[view] - epsilon for view in alive), reverse=True
                )
                threshold = lower_bounds[ctx.k - 1] if len(lower_bounds) >= ctx.k else -1.0
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

        ctx.raw_views = {view: raw[view] for view in views if view in alive}

    def _degrade(self, ctx: ExecutionContext, trace: IncrementalTrace) -> bool:
        """Deadline expiry (never explicit cancellation) degrades gracefully
        once one unbiased round has been absorbed: the best current top-k
        ships marked partial, ε saying how far an estimate can still move."""
        if trace.phases_executed < 1:
            return False
        ctx.partial = True
        ctx.partial_epsilon = self.epsilon(trace.phases_executed)
        return True


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
