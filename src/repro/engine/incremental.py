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
results fold into each group's one
:class:`~repro.optimizer.combine.GroupState` — the state a blocking run
fills once — and its blocks, cut to the alive views, go to the shared
batch scorer. The final blocks are left in ``ctx.blocks``, so the
standard View Processor / top-k phases finish the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.db.expressions import RowPartition
from repro.engine.context import ExecutionContext
from repro.engine.phases import Phase, PlanPhase, ScorePhase
from repro.model.view import ViewBlock, ViewSpec
from repro.optimizer.combine import GroupState
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


def _alive_rows(block: ViewBlock, alive) -> ViewBlock:
    rows = [row for row, spec in enumerate(block.specs) if spec in alive]
    specs = tuple(block.specs[row] for row in rows)
    return replace(block, specs=specs, target=block.target[rows], comparison=block.comparison[rows])


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
    ):
        self.n_phases = n_phases
        self.delta = delta
        self.min_phases_before_pruning = min_phases_before_pruning
        self.epsilon_scale = epsilon_scale

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
        finalizes ``ctx.blocks`` exactly like :meth:`run`.

        Every round executes the steps of ``ctx.plan``, trimmed to the
        groups with a view still alive, on ``ctx.backend``: sharing and the
        reference's query shape (one flag-combined query or a
        target/reference pair) are whatever ``PlanPhase`` chose. A
        hand-assembled phase list without one is planned here.
        """
        views = list(ctx.surviving)
        trace = IncrementalTrace(n_phases=self.n_phases)
        ctx.extras[TRACE_KEY] = trace
        if not views:
            return
        if ctx.plan is None:
            PlanPhase().run(ctx)
        processor = ScorePhase.processor(ctx)

        states: dict[ViewGroup, GroupState] = {}
        blocks: list[ViewBlock] = []
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
            for step, results in zip(steps, fetched):
                step.fold(results, states)
            blocks = [
                _alive_rows(states[group].block(step.merges_sides), alive)
                for step in steps
                for group in step.groups
            ]
            trace.phases_executed = phase + 1

            # Re-estimate utilities for alive views via the shared batch
            # scorer (one dense block per group, not one call per view).
            estimates = processor.score_blocks(blocks)
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

        # The last round's alive rows, in the order the views were enumerated.
        position = {view: index for index, view in enumerate(views)}
        ctx.blocks = sorted(
            (_alive_rows(b, alive) for b in blocks if not alive.isdisjoint(b.specs)),
            key=lambda block: position[block.specs[0]],
        )

    def _degrade(self, ctx: ExecutionContext, trace: IncrementalTrace) -> bool:
        """Deadline expiry (never explicit cancellation) degrades gracefully
        once one unbiased round has been absorbed: the best current top-k
        ships marked partial, ε saying how far an estimate can still move."""
        if trace.phases_executed < 1:
            return False
        ctx.partial = True
        ctx.partial_epsilon = self.epsilon(trace.phases_executed)
        return True


#: A phased run is scored like any other: the final blocks hold the last
#: round's alive views. The name stays for pipelines assembled by hand.
IncrementalScorePhase = ScorePhase
