"""The default phase set: Figure 4 as composable pipeline stages.

Metadata Collector → Query Generator (enumerate + prune) → Optimizer
(sample + plan) → DBMS (execute) → View Processor (score) → top-k
(select). Each phase is an object with a ``name`` (its stopwatch key) and
a ``run(ctx)`` that reads/writes :class:`~repro.engine.context.ExecutionContext`
fields. Alternative strategies swap individual phases: incremental
execution replaces Execute (``strategy="incremental"``,
:mod:`repro.engine.incremental`), and the
:func:`~repro.engine.multiview.multiview_phases` preset replaces
Enumerate/Prune with multi-attribute ones.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.space import enumerate_views, split_predicate_dimensions
from repro.core.topk import top_k_views
from repro.core.view_processor import ViewProcessor
from repro.engine.context import ExecutionContext
from repro.optimizer.plan import Planner, candidate_kinds
from repro.pruning.base import PruneReport


class Phase:
    """One pipeline stage; ``name`` doubles as the stopwatch key."""

    name: str = ""

    def run(self, ctx: ExecutionContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def filter_view_space(candidates, dimensions, measures):
    """Restrict enumerated views to the requested attribute subsets.

    ``dimensions``/``measures`` of None mean "no restriction"; count(*)
    views (measure None) survive any measure filter — they carry no
    measure to restrict.
    """
    if dimensions is not None:
        allowed = set(dimensions)
        candidates = [v for v in candidates if v.dimension in allowed]
    if measures is not None:
        allowed = set(measures)
        candidates = [
            v for v in candidates if v.measure is None or v.measure in allowed
        ]
    return candidates


class MetadataPhase(Phase):
    """Collect table metadata (cached per data version) and log the query."""

    name = "metadata"

    def run(self, ctx: ExecutionContext) -> None:
        collector = ctx.metadata_collector
        if collector is not None:
            # The analyst's query itself is history the access-frequency
            # pruner learns from (§3.3).
            collector.access_log.record_query(ctx.query)
        max_rows = ctx.config.metadata_max_rows
        ctx.base_table = ctx.cache.base_table(ctx.query.table, max_rows=max_rows)
        if collector is not None:
            ctx.metadata = ctx.cache.metadata(
                collector, ctx.query.table, max_rows=max_rows
            )
        # Count view-query round trips only (metadata fetches excluded).
        ctx.mark_query_baseline()


class EnumeratePhase(Phase):
    """Enumerate the candidate view space A x M x F."""

    name = "enumerate"

    def run(self, ctx: ExecutionContext) -> None:
        ctx.mark_query_baseline()
        ctx.schema = ctx.cache.schema(ctx.query.table)
        ctx.candidates = enumerate_views(
            ctx.schema,
            functions=ctx.config.aggregate_functions,
            include_count=ctx.config.include_count_views,
        )
        ctx.candidates = filter_view_space(
            ctx.candidates, ctx.dimensions, ctx.measures
        )
        ctx.surviving = list(ctx.candidates)


class PrunePhase(Phase):
    """Drop predicate-constrained dimensions, then run the pruning rules."""

    name = "prune"

    def run(self, ctx: ExecutionContext) -> None:
        surviving = list(ctx.surviving)
        if ctx.config.exclude_predicate_dimensions:
            surviving, excluded = split_predicate_dimensions(
                surviving, ctx.query.predicate
            )
            report = PruneReport(
                rule="predicate_dimensions", examined=len(ctx.candidates)
            )
            report.pruned.extend(excluded)
            ctx.prune_reports.append(report)
        if ctx.metadata is not None:
            pipeline = ctx.config.pruning_pipeline()
            surviving, rule_reports = pipeline.apply(surviving, ctx.metadata)
            ctx.prune_reports.extend(rule_reports)
        ctx.surviving = surviving


class SamplePhase(Phase):
    """Materialize a sampled execution table when the optimization applies.

    The fraction comes from ``config.sample_fraction``, or — opt-in, when
    that is unset but ``auto_sample_epsilon`` is — from the cost model's
    Hoeffding-bound selector (the smallest candidate fraction whose
    sampled size keeps the error within the ε budget). Auto selection
    never engages silently: both knobs default to exact execution.
    """

    name = "sample"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        ctx.execution_table = ctx.query.table
        ctx.sample_fraction = None
        fraction = config.sample_fraction
        if fraction is not None and fraction >= 1.0:
            return
        auto = fraction is None
        if auto and not (
            config.cost_based_planning and config.auto_sample_epsilon is not None
        ):
            return
        rows = ctx.cache.row_count(ctx.query.table)
        if rows < config.min_rows_for_sampling:
            return
        if auto:
            from repro.optimizer.cost import choose_sample_fraction

            fraction = choose_sample_fraction(rows, config.auto_sample_epsilon)
            if fraction is None or fraction >= 1.0:
                return
            ctx.extras["auto_sample_fraction"] = fraction
        ctx.execution_table = ctx.cache.sample(
            ctx.query.table, fraction, config.sample_seed
        )
        ctx.sample_fraction = fraction


class PlanPhase(Phase):
    """Map surviving views onto an execution plan (the Optimizer proper).

    One :class:`~repro.optimizer.plan.Planner`, one plan per candidate
    kind. The candidates are the rows of
    :data:`~repro.optimizer.plan.PLAN_KINDS` that
    ``config.groupby_combining`` admits
    (:func:`~repro.optimizer.plan.candidate_kinds`), the
    capability-declared one first. Dimension cardinalities come from the
    Metadata phase's statistics (``ctx.metadata``), the one statistics
    pass per ``(table, data_version)``. With ``config.cost_based_planning``
    on, each plan is priced by
    :func:`~repro.optimizer.cost.estimate_plan_cost` from those
    cardinalities and the exact, cached row count, converted to seconds
    with the backend's calibrated coefficients, and the argmin executes;
    ties (strict comparison) keep the capability-declared kind. Every candidate
    is equivalence-preserving, so the choice changes *how* views execute,
    never the recommendations. The decision record travels on
    ``ctx.plan_decision`` (``cost_based`` is False when the mode was pinned
    to one kind) and feeds the engine's calibration loop.

    With the flag off, or with no statistics to price from (a phase list
    without the Metadata phase), only the first candidate is planned and
    nothing is priced: ``ctx.plan_decision`` stays ``None``.
    """

    name = "plan"

    def run(self, ctx: ExecutionContext) -> None:
        config = ctx.config
        capabilities = ctx.backend.capabilities
        priced = config.cost_based_planning and ctx.metadata is not None
        cardinalities = (
            ctx.metadata.stats.cardinalities() if ctx.metadata is not None else {}
        )
        table = ctx.resolve_execution_table()
        base = config.planner_config()

        candidates = candidate_kinds(config.groupby_combining, capabilities)
        if not priced:
            candidates = candidates[:1]
        plans = [
            Planner(replace(base, groupby_combining=kind)).plan(
                ctx.surviving,
                table,
                ctx.query.predicate,
                cardinalities,
                capabilities,
                reference=ctx.reference,
            )
            for kind in candidates
        ]
        ctx.plan = (
            self._cheapest(ctx, candidates, plans, cardinalities)
            if priced
            else plans[0]
        )
        ctx.plan_description = ctx.plan.describe()

    def _cheapest(self, ctx: ExecutionContext, candidates, plans, cardinalities):
        """Price every candidate plan, record the decision, return the argmin."""
        from repro.optimizer.cost import (
            CostModel,
            PlanDecision,
            choose_parallelism,
            estimate_plan_cost,
        )

        config = ctx.config
        n_rows = ctx.cache.row_count(ctx.query.table)
        model = CostModel.for_backend(ctx.backend.name, ctx.cache.calibration)

        best = None
        candidate_seconds: dict[str, float] = {}
        for mode, plan in zip(candidates, plans):
            cost = estimate_plan_cost(
                plan,
                n_rows,
                cardinalities,
                ctx.backend.capabilities,
                sample_fraction=ctx.sample_fraction,
            )
            seconds = model.predict_seconds(cost)
            candidate_seconds[mode.value] = seconds
            if best is None or seconds < best[2]:
                best = (plan, cost, seconds, mode)

        plan, cost, seconds, chosen = best
        decision = PlanDecision(
            kind=chosen.value,
            cost_based=len(candidates) > 1,
            predicted=cost,
            predicted_seconds=seconds,
            candidate_seconds=candidate_seconds,
            coefficients=model.coefficients,
            sample_fraction=ctx.sample_fraction,
        )
        n_steps = len(plan.steps)
        decision.recommended_workers = choose_parallelism(
            n_steps,
            seconds / n_steps if n_steps else 0.0,
            config.n_workers,
        )
        if (
            config.auto_parallelism
            and ctx.executor is not None
            and decision.recommended_workers <= 1
        ):
            # Predicted per-step work cannot amortize worker dispatch
            # overhead: degrade this run to sequential execution.
            ctx.executor = None
        ctx.plan_decision = decision
        return plan


class ExecutePhase(Phase):
    """Run the plan against the DBMS, parallel when a pool is available."""

    name = "execute"

    def run(self, ctx: ExecutionContext) -> None:
        if ctx.plan is None:
            return
        if ctx.executor is not None:
            ctx.blocks, report = ctx.executor.run(ctx.plan, ctx.backend)
            ctx.extras["parallel_report"] = report
        else:
            ctx.blocks = ctx.plan.run(ctx.backend)


class ScorePhase(Phase):
    """View Processor: normalize and score every executed view block
    through the columnar path (vectorized metrics), with the configured
    metric and normalization. A custom metric reaches this phase through
    :func:`~repro.metrics.registry.register_metric`.
    """

    name = "score"

    @staticmethod
    def processor(ctx: ExecutionContext) -> ViewProcessor:
        """The View Processor configured for this run."""
        return ViewProcessor(ctx.config.resolve_metric(), ctx.config.normalization)

    def run(self, ctx: ExecutionContext) -> None:
        ctx.scored = self.processor(ctx).score_blocks(ctx.blocks)


class SelectPhase(Phase):
    """Pick the top-k by utility (Problem 2.1)."""

    name = "select"

    def run(self, ctx: ExecutionContext) -> None:
        ctx.recommendations = top_k_views(ctx.scored.values(), ctx.k)


class RenderPhase(Phase):
    """Translate the selected top-k into chart frames (§3.2 frontend).

    Appended after :class:`SelectPhase` when the request's
    ``options.render`` block asks for output. Each recommended view is
    paired with a chart chosen by the DataVizard-style selector
    (:func:`repro.viz.chart_select.select_chart`: dtype, cardinality,
    semantic tag, series count) and emitted as a JSON-safe frame —
    Vega-Lite spec or standalone SVG plus the chart-type rationale.
    Frames live on ``ctx.visualizations`` and travel inside the result,
    so coalesced joiners, the result LRU, and the cluster reply pipe all
    carry them without re-rendering.
    """

    name = "render"

    def __init__(self, render: "dict | None" = None):
        #: Normalized ``options.render`` block (format/theme/max_charts).
        self.render = dict(render) if render else {}

    def run(self, ctx: ExecutionContext) -> None:
        from repro.viz.render import build_visualizations

        ctx.visualizations = build_visualizations(
            ctx.recommendations, ctx.schema, self.render
        )


def default_phases() -> list[Phase]:
    """The standard batch pipeline, in Figure-4 order."""
    return [
        MetadataPhase(),
        EnumeratePhase(),
        PrunePhase(),
        SamplePhase(),
        PlanPhase(),
        ExecutePhase(),
        ScorePhase(),
        SelectPhase(),
    ]
