"""The ExecutionEngine: one pipeline, one driver, shared session services.

The engine owns the session-scoped machinery the per-call monolith could
not support:

* a shared :class:`~repro.engine.cache.EngineCache` keyed on the backend's
  identity and ``data_version`` — every engine on one backend reuses the
  same schema/metadata/sample lookups, across sessions and across the
  service layer's worker threads;
* one :class:`~repro.metadata.collector.MetadataCollector` whose access
  log accumulates session history for access-frequency pruning.

There is one way through. :func:`resolve_request` folds a
:class:`~repro.api.RecommendationRequest` and a session's base config into
the :class:`~repro.api.ResolvedRequest` the engine executes (a stream pins
``strategy="incremental"`` first); :func:`phases_for` maps that resolved
request onto its phase list; :meth:`ExecutionEngine.drive` is the only
loop over phases — a generator that runs each phase under the stopwatch
and the cancel scope, stepping a phase that exposes ``rounds(ctx)`` one
round at a time. :meth:`~ExecutionEngine.recommend` is that generator
exhausted; :meth:`~ExecutionEngine.recommend_iter` is the same generator
with each round packaged as a :class:`~repro.api.PartialResult`. The
facade, the service and the cluster workers all execute through these.
Multi-attribute views are not a separate path: ``config.n_dimensions``
shapes the view space the same phases enumerate, prune, price and run.

Everything is reentrant: all mutable run state lives in the per-call
:class:`~repro.engine.context.ExecutionContext`, the cache and collector
are internally synchronized, and engines own no threads (a plan's steps
run on :func:`~repro.optimizer.parallel.run_steps`'s process-wide bounded
pool) — concurrent calls on one engine are safe and produce the same
results as serial ones.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.core.topk import top_k_views
from repro.db.query import RowSelectQuery
from repro.engine.cache import EngineCache
from repro.engine.context import ExecutionContext
from repro.engine.incremental import TRACE_KEY, IncrementalRound, PhasedExecutePhase
from repro.engine.phases import Phase, RenderPhase, default_phases
from repro.metadata.collector import MetadataCollector
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.util.deadline import CancelToken, Deadline, cancel_scope

if TYPE_CHECKING:
    from repro.api.progressive import PartialResult
    from repro.api.request import RecommendationRequest, ResolvedRequest


def resolve_request(
    request: "RecommendationRequest",
    base_config: SeeDBConfig,
    stream: bool = False,
) -> "ResolvedRequest":
    """Merge ``request`` with a session's base config for execution.

    Streaming always runs the incremental machinery; pinning the strategy
    *before* resolution keeps the bounded-metric validation and the
    service's coalescing key honest.
    """
    from repro.api.request import require_request

    request = require_request(request)
    if stream and request.strategy != "incremental":
        request = replace(request, strategy="incremental")
    return request.resolve(base_config)


def phases_for(resolved: "ResolvedRequest") -> list[Phase]:
    """The phase list a resolved request runs: the default pipeline, its
    execute phase swapped for the phased one when the strategy is
    incremental, plus :class:`RenderPhase` when a render block asks."""
    phases = default_phases()
    if resolved.strategy == "incremental":
        phased = PhasedExecutePhase(**resolved.incremental)
        phases = [phased if phase.name == "execute" else phase for phase in phases]
    if resolved.render.get("format", "none") != "none":
        phases.append(RenderPhase(resolved.render))
    return phases


class ExecutionEngine:
    """Runs phase pipelines over one backend with session-scoped reuse."""

    def __init__(
        self,
        backend: Backend,
        metadata_collector: "MetadataCollector | None" = None,
    ):
        self.backend = backend
        self.metadata = (
            metadata_collector if metadata_collector is not None else MetadataCollector()
        )
        self.cache = EngineCache.acquire(backend)
        self._lock = threading.Lock()
        self._closed = False

    # -- running pipelines ------------------------------------------------

    def new_context(
        self,
        query: RowSelectQuery,
        config: SeeDBConfig,
        k: int,
        reference: "ResolvedReference | None" = None,
        dimensions: "tuple[str, ...] | None" = None,
        measures: "tuple[str, ...] | None" = None,
        cancel_token: "CancelToken | None" = None,
    ) -> ExecutionContext:
        """A context wired to this engine's session services."""
        return ExecutionContext(
            backend=self.backend,
            query=query,
            config=config,
            k=k,
            reference=reference if reference is not None else TABLE_REFERENCE,
            dimensions=dimensions,
            measures=measures,
            cache=self.cache,
            metadata_collector=self.metadata,
            cancel_token=cancel_token,
        )

    def _context_for(
        self, resolved: "ResolvedRequest", cancel_token: "CancelToken | None"
    ) -> ExecutionContext:
        """A context for one resolved request.

        ``cancel_token`` carries the request-lifecycle budget; the serving
        tier passes one measured from admission. Standalone callers get a
        token derived from the request's ``deadline_ms``, if set.
        """
        if cancel_token is None and resolved.deadline_ms is not None:
            cancel_token = CancelToken(
                deadline=Deadline.from_ms(resolved.deadline_ms)
            )
        return self.new_context(
            resolved.query,
            resolved.config,
            resolved.k,
            reference=resolved.reference,
            dimensions=resolved.dimensions,
            measures=resolved.measures,
            cancel_token=cancel_token,
        )

    def drive(
        self, phases: Iterable[Phase], ctx: ExecutionContext
    ) -> "Iterator[IncrementalRound]":
        """The pipeline driver: run ``phases`` in order, yielding rounds.

        Each phase is timed under its name and checked against the
        context's cancel token at its boundary. A phase exposing
        ``rounds(ctx)`` is stepped one round at a time and every round is
        yielded to the caller; any other phase is one ``run(ctx)`` step.
        The token is installed as the thread's cancel scope (so backends
        can interrupt long queries mid-phase) per work slice, never across
        a ``yield``: between ``next()`` calls this thread runs consumer
        code that must not inherit the request's token.
        """
        self.cache.sync()

        def work_slice(phase: Phase, work):
            with ctx.stopwatch.time(phase.name), cancel_scope(ctx.cancel_token):
                return work()

        for phase in phases:
            ctx.check_cancelled()
            rounds = getattr(phase, "rounds", None)
            if rounds is None:
                work_slice(phase, lambda: phase.run(ctx))
                continue
            # A stepped phase checks the token between its own rounds.
            steps = rounds(ctx)
            while (state := work_slice(phase, lambda: next(steps, None))) is not None:
                yield state
        self._observe_plan_outcome(ctx)

    def run(
        self, phases: Iterable[Phase], ctx: ExecutionContext
    ) -> ExecutionContext:
        """:meth:`drive` exhausted: execute ``phases`` over ``ctx``."""
        for _round in self.drive(phases, ctx):
            pass
        return ctx

    def recommend(
        self,
        resolved: "ResolvedRequest",
        cancel_token: "CancelToken | None" = None,
    ) -> ExecutionContext:
        """Blocking execution of a resolved request; returns the finished
        context (``.to_result()`` packages it)."""
        return self.run(
            phases_for(resolved), self._context_for(resolved, cancel_token)
        )

    def recommend_iter(
        self,
        resolved: "ResolvedRequest",
        cancel_token: "CancelToken | None" = None,
    ) -> "Iterator[PartialResult]":
        """Progressive execution of a resolved request (generator).

        The same drive as :meth:`recommend`, with every round packaged as
        a :class:`~repro.api.PartialResult` and a final round carrying the
        finished result — bit-identical to the blocking result because it
        *is* the blocking run, observed between rounds.
        """
        from repro.api.progressive import PartialResult

        rendering = resolved.render.get("format", "none") != "none"
        ctx = self._context_for(resolved, cancel_token)
        for round_state in self.drive(phases_for(resolved), ctx):
            round_top_k = top_k_views(round_state.scored.values(), resolved.k)
            visualizations = None
            if rendering:
                # Per-round specs for the *current* estimate, from the
                # builder RenderPhase runs at the end: each round's charts
                # refine the previous round's.
                from repro.viz.render import build_visualizations

                visualizations = build_visualizations(
                    round_top_k, ctx.schema, resolved.render
                )
            yield PartialResult(
                round=round_state.phase,
                n_rounds=round_state.n_phases,
                recommendations=round_top_k,
                views_alive=round_state.views_alive,
                views_pruned=round_state.views_pruned,
                epsilon=round_state.epsilon,
                visualizations=visualizations,
            )
        result = ctx.to_result()
        trace = ctx.extras.get(TRACE_KEY)
        yield PartialResult(
            round=trace.phases_executed if trace is not None else 0,
            n_rounds=trace.n_phases if trace is not None else 0,
            recommendations=list(result.recommendations),
            views_alive=sum(block.n_views for block in ctx.blocks),
            views_pruned=len(trace.pruned_at_phase) if trace is not None else 0,
            epsilon=result.partial_epsilon if result.partial else 0.0,
            is_final=True,
            result=result,
            visualizations=result.visualizations,
        )

    def _observe_plan_outcome(self, ctx: ExecutionContext) -> None:
        """Record the observed execute seconds on a cost-planned blocking
        run's decision, beside the planner's prediction."""
        decision = ctx.plan_decision
        if decision is None or TRACE_KEY in ctx.extras:
            # A phased run's execute clock spans every round's partition
            # scan and re-estimate; the prediction priced one full scan.
            return
        decision.observed_seconds = ctx.stopwatch.phases.get("execute")

    # -- session services ---------------------------------------------------

    def close(self) -> None:
        """Release this engine's cache lease.

        The backend-wide shared cache drops samples only when its last
        engine closes. Idempotent: a second close (context-manager exit
        after an explicit close) must not release a lease some *other*
        engine still holds.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.cache.close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
