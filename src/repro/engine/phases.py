"""The default phase set: Figure 4 as composable pipeline stages.

Metadata Collector → Query Generator (enumerate + prune) → Optimizer
(sample + plan) → DBMS (execute) → View Processor (score) → top-k
(select). Each phase is an object with a ``name`` (its stopwatch key) and
a ``run(ctx)`` that reads/writes :class:`~repro.engine.context.ExecutionContext`
fields. Alternative strategies swap individual phases: incremental
execution replaces Execute (``strategy="incremental"``,
:mod:`repro.engine.incremental`). Multi-attribute views
(``config.n_dimensions`` > 1) run the same list: Enumerate builds the key
sets, and every later phase reads ``view.keys``.
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

    ``dimensions``/``measures`` of None mean "no restriction"; a
    multi-attribute view passes a dimension filter when every one of its
    keys is allowed; count(*) views (measure None) survive any measure
    filter — they carry no measure to restrict.
    """
    if dimensions is not None:
        allowed = set(dimensions)
        candidates = [v for v in candidates if allowed.issuperset(v.keys)]
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
        # The analyst's query itself is history the access-frequency
        # pruner learns from (§3.3).
        collector.access_log.record_query(ctx.query)
        max_rows = ctx.config.metadata_max_rows
        ctx.base_table = ctx.cache.base_table(ctx.query.table, max_rows=max_rows)
        ctx.metadata = ctx.cache.metadata(collector, ctx.query.table, max_rows=max_rows)
        # Count view-query round trips only (metadata fetches excluded).
        ctx.mark_query_baseline()


class EnumeratePhase(Phase):
    """Enumerate the candidate view space A x M x F, each view grouping by
    ``config.n_dimensions`` attributes (one, the paper's prototype, by
    default)."""

    name = "enumerate"

    def run(self, ctx: ExecutionContext) -> None:
        ctx.mark_query_baseline()
        ctx.schema = ctx.cache.schema(ctx.query.table)
        ctx.candidates = enumerate_views(
            ctx.schema,
            functions=ctx.config.aggregate_functions,
            include_count=ctx.config.include_count_views,
            n_dimensions=ctx.config.n_dimensions,
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
        if auto and config.auto_sample_epsilon is None:
            return
        rows = ctx.cache.row_count(ctx.query.table)
        if rows < config.min_rows_for_sampling:
            return
        if auto:
            from repro.optimizer.cost import choose_sample_fraction

            fraction = choose_sample_fraction(rows, config.auto_sample_epsilon)
            if fraction is None or fraction >= 1.0:
                return
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
    pass per ``(table, data_version)``. Each plan is priced by
    :func:`~repro.optimizer.cost.estimate_plan_cost` from those
    cardinalities and the exact, cached row count, converted to seconds
    with the backend's fixed coefficients, and the argmin executes;
    ties (strict comparison) keep the capability-declared kind. Every
    candidate is equivalence-preserving, so the choice changes *how*
    views execute, never the recommendations. The decision record travels
    on ``ctx.plan_decision`` (``cost_based`` is False when the mode was
    pinned to one kind or ``config.cost_based_planning`` is off).

    With the flag off only the first candidate is planned, and it is
    still priced: the execute phase's worker count reads the price.
    """

    name = "plan"

    def run(self, ctx: ExecutionContext) -> None:
        from repro.optimizer.cost import (
            PlanDecision,
            coefficients_for,
            estimate_plan_cost,
        )

        config = ctx.config
        capabilities = ctx.backend.capabilities
        cardinalities = ctx.metadata.stats.cardinalities()
        table = ctx.resolve_execution_table()
        base = config.planner_config()
        n_rows = ctx.cache.row_count(ctx.query.table)
        coefficients = coefficients_for(ctx.backend.name)

        candidates = candidate_kinds(config.groupby_combining, capabilities)
        if not config.cost_based_planning:
            candidates = candidates[:1]
        best = None
        candidate_seconds: dict[str, float] = {}
        for mode in candidates:
            plan = Planner(replace(base, groupby_combining=mode)).plan(
                ctx.surviving,
                table,
                ctx.query.predicate,
                cardinalities,
                capabilities,
                reference=ctx.reference,
            )
            cost = estimate_plan_cost(
                plan,
                n_rows,
                cardinalities,
                capabilities,
                sample_fraction=ctx.sample_fraction,
            )
            seconds = coefficients.predict_seconds(cost)
            candidate_seconds[mode.value] = seconds
            if best is None or seconds < best[2]:
                best = (plan, cost, seconds, mode)

        plan, cost, seconds, chosen = best
        ctx.plan = plan
        ctx.plan_description = plan.describe()
        ctx.plan_decision = PlanDecision(
            kind=chosen.value,
            cost_based=len(candidates) > 1,
            predicted=cost,
            predicted_seconds=seconds,
            candidate_seconds=candidate_seconds,
            coefficients=coefficients,
            sample_fraction=ctx.sample_fraction,
        )


class ExecutePhase(Phase):
    """Run the plan against the DBMS, its steps spread over claimers.

    The one place the worker count is decided, by one rule
    (:func:`~repro.optimizer.cost.choose_parallelism`): up to
    ``config.n_workers`` claimers (the usable cores by default) when the
    planner's price of a step amortizes dispatch, else one. Helpers start
    only on cores no other plan's claimers hold
    (:func:`~repro.optimizer.parallel.claim_cores`), and the count that
    ran is recorded as ``plan_decision.recommended_workers``.
    """

    name = "execute"

    def run(self, ctx: ExecutionContext) -> None:
        from repro.optimizer.cost import choose_parallelism
        from repro.optimizer.parallel import claim_cores

        plan, decision = ctx.plan, ctx.plan_decision
        per_step_seconds = decision.predicted_seconds / max(len(plan.steps), 1)
        wanted = choose_parallelism(
            len(plan.steps), per_step_seconds, ctx.config.n_workers
        )
        with claim_cores(wanted) as n_workers:
            decision.recommended_workers = n_workers
            ctx.blocks = plan.run(ctx.backend, n_workers)


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
