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

from repro.core.space import enumerate_views, split_predicate_dimensions
from repro.core.topk import top_k_views
from repro.core.view_processor import ViewProcessor
from repro.engine.context import ExecutionContext
from repro.optimizer.plan import Planner
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

    The candidates are what ``config.groupby_combining`` admits
    (:meth:`~repro.optimizer.plan.Planner.candidates`): a pinned kind, or
    under ``AUTO`` every row of :data:`~repro.optimizer.plan.PLAN_KINDS`
    with ``ROLLUP`` at each budget of
    :data:`~repro.optimizer.plan.ROLLUP_BUDGET_LADDER`, the
    capability-declared kind first. Dimension cardinalities come from the
    Metadata phase's statistics (``ctx.metadata``), the one statistics
    pass per ``(table, data_version)``. :func:`~repro.optimizer.cost.choose_plan`
    prices each candidate's bins from those cardinalities and the exact,
    cached row count, converts the work to seconds with the backend's
    fixed coefficients, prices the wall-clock on up to
    ``config.n_workers`` claimers, and builds the argmin; ties keep the
    earlier candidate. Every candidate is equivalence-preserving, so the choice
    changes *how* views execute, never the recommendations. The decision
    record travels on ``ctx.plan_decision`` (``cost_based`` is False when
    the mode pinned one kind); the execute phase's worker count reads its
    price.
    """

    name = "plan"

    def run(self, ctx: ExecutionContext) -> None:
        from repro.optimizer.cost import choose_plan, coefficients_for

        ctx.plan, ctx.plan_decision = choose_plan(
            Planner(ctx.config.planner_config()),
            ctx.surviving,
            ctx.resolve_execution_table(),
            ctx.query.predicate,
            ctx.metadata.stats.cardinalities(),
            ctx.backend.capabilities,
            ctx.reference,
            n_rows=ctx.cache.row_count(ctx.query.table),
            coefficients=coefficients_for(ctx.backend.name),
            max_workers=ctx.config.n_workers,
            sample_fraction=ctx.sample_fraction,
        )
        ctx.plan_description = ctx.plan.describe()


class ExecutePhase(Phase):
    """Run the plan against the DBMS, its steps spread over claimers.

    The one place the worker count is decided, by one rule
    (:func:`~repro.optimizer.cost.choose_parallelism`, the rule the
    planner priced the plan's wall-clock with): up to
    ``config.n_workers`` claimers (the usable cores by default) when the
    backend's statements run at once and the planner's price of a step
    amortizes dispatch, else one. Helpers start only on cores no other
    plan's claimers hold (:func:`~repro.optimizer.parallel.claim_cores`),
    and the count that ran is recorded as
    ``plan_decision.recommended_workers``.
    """

    name = "execute"

    def run(self, ctx: ExecutionContext) -> None:
        from repro.optimizer.cost import choose_parallelism
        from repro.optimizer.parallel import claim_cores

        plan, decision = ctx.plan, ctx.plan_decision
        coefficients = decision.coefficients
        work_seconds = coefficients.predict_seconds(decision.predicted)
        wanted = choose_parallelism(
            len(plan.steps),
            work_seconds / max(len(plan.steps), 1),
            ctx.config.n_workers,
            statements_overlap=coefficients.statements_overlap,
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
