"""Incremental execution with confidence-based early termination.

The demo paper's challenge (d): "since analysis must happen in real-time,
we must trade-off accuracy of visualizations or estimation of
'interestingness' for reduced latency" (§1). The companion full system
realizes this with *phased* execution: the table is split into partitions,
view queries run one partition at a time, running utility estimates are
maintained, and views whose optimistic utility bound cannot reach the
current top-k are dropped before they consume further work.

The machinery lives in :mod:`repro.engine.incremental` as an alternative
Execute/Score phase pair on the shared
:class:`~repro.engine.ExecutionEngine` — Hoeffding pruning and the running
per-group aggregates there; the partition queries are ordinary plan steps
executed on the backend; alignment, normalization, scoring, and top-k go
through the same View Processor and selection phases as the batch path.
This module keeps the stable user-facing API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.db.table import Table
from repro.engine.engine import ExecutionEngine
from repro.engine.incremental import (
    BOUNDED_METRICS,
    IncrementalScorePhase,
    IncrementalTrace,
    PhasedExecutePhase,
    TRACE_KEY,
)
from repro.engine.phases import SelectPhase
from repro.metrics.base import DistanceMetric
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.model.view import ScoredView, ViewSpec
from repro.util.errors import ConfigError

if TYPE_CHECKING:
    from repro.api.request import RecommendationRequest

__all__ = ["IncrementalRecommender", "IncrementalResult", "BOUNDED_METRICS"]


@dataclass
class IncrementalResult:
    """Outcome of one incremental recommendation run."""

    recommendations: list[ScoredView]
    #: Final utility estimate of every view still alive at the end.
    utilities: dict[ViewSpec, float]
    #: Views dropped early: spec -> phase index at which they were pruned.
    pruned_at_phase: dict[ViewSpec, int]
    #: Phases actually executed (may stop early when only k views remain).
    phases_executed: int
    n_phases: int
    #: (view, phase) executions performed / the exhaustive count.
    work_done: int
    work_possible: int

    @property
    def work_saved_fraction(self) -> float:
        """Fraction of per-view phase executions skipped by pruning."""
        if self.work_possible == 0:
            return 0.0
        return 1.0 - self.work_done / self.work_possible


class IncrementalRecommender:
    """Phase-at-a-time recommendation with early view pruning.

    Takes an in-memory :class:`Table` and executes on its own
    :class:`MemoryBackend` holding it — a request must target that table.
    Partitioning and pruning are backend-independent by construction.
    """

    def __init__(
        self,
        table: Table,
        metric: "str | DistanceMetric" = "js",
        normalization: NormalizationPolicy = NormalizationPolicy.SHIFT,
    ):
        self.metric = get_metric(metric)
        if self.metric.name not in BOUNDED_METRICS:
            raise ConfigError(
                f"incremental pruning needs a [0,1]-bounded metric; "
                f"{self.metric.name!r} is not (use one of "
                f"{sorted(BOUNDED_METRICS)})"
            )
        self.normalization = normalization
        # One session engine, like the other facades.
        backend = MemoryBackend()
        backend.register_table(table)
        self.engine = ExecutionEngine(backend)

    def recommend(
        self, request: "RecommendationRequest", views: list[ViewSpec]
    ) -> IncrementalResult:
        """Run up to ``n_phases`` phases over ``views``, pruning hopeless
        views between them.

        The request's reference spec, metric and incremental options are
        honored; the explicit view list takes the place of enumeration.
        Knob values arrive pre-validated — every constructible request
        already enforces the executor's ranges. ``delta`` is the
        per-comparison failure probability of the Hoeffding bound; smaller
        = more conservative pruning. ``epsilon_scale`` tightens the
        worst-case Hoeffding radius by a constant factor: utility
        estimates over interleaved partitions concentrate far faster than
        the distribution-free bound allows (each phase is itself an
        aggregate over thousands of rows, not one sample), so the raw
        bound almost never prunes. The default 0.25 is an empirical
        calibration — set it to 1.0 for the fully conservative behaviour,
        0 to disable the radius entirely (aggressive, estimate-only
        pruning).
        """
        from repro.api.errors import ApiError
        from repro.api.request import INCREMENTAL_OPTION_DEFAULTS, require_request

        request = require_request(request)
        knobs = {
            key: request.options.get(key, default)
            for key, default in INCREMENTAL_OPTION_DEFAULTS.items()
        }
        k = request.k if request.k is not None else 5
        metric = self.metric
        if request.metric is not None:
            metric = get_metric(request.metric)
            if metric.name not in BOUNDED_METRICS:
                raise ApiError(
                    f"incremental pruning needs a [0,1]-bounded metric; "
                    f"{metric.name!r} is not (use one of "
                    f"{sorted(BOUNDED_METRICS)})",
                    code="invalid_value",
                    field="metric",
                )
        if not views:
            return IncrementalResult([], {}, {}, 0, knobs["n_phases"], 0, 0)

        # The view list is explicit, so nothing is enumerated or profiled:
        # plan statically (no statistics pass), like MultiViewRecommender.
        config = SeeDBConfig(
            normalization=self.normalization, k=k, cost_based_planning=False
        )
        ctx = self.engine.new_context(
            request.target,
            config,
            k,
            reference=request.reference.resolve(request.target),
        )
        ctx.surviving = list(views)
        # The metric is handed to the phases as an *instance* so custom
        # DistanceMetric objects survive the trip (no registry round trip).
        phases = [
            PhasedExecutePhase(
                metric=metric, normalization=self.normalization, **knobs
            ),
            IncrementalScorePhase(
                metric=metric, normalization=self.normalization
            ),
            SelectPhase(),
        ]
        self.engine.run(phases, ctx)
        trace: IncrementalTrace = ctx.extras[TRACE_KEY]
        return IncrementalResult(
            recommendations=ctx.recommendations,
            utilities=dict(trace.utilities),
            pruned_at_phase=dict(trace.pruned_at_phase),
            phases_executed=trace.phases_executed,
            n_phases=trace.n_phases,
            work_done=trace.work_done,
            work_possible=trace.work_possible,
        )
