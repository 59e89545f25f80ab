"""Multi-attribute views as a phase-list preset.

The §2 generalization ("SEEDB techniques can directly be used to recommend
visualizations for multiple column views") on the shared engine:
:func:`multiview_phases` swaps Enumerate/Prune for tuple-dimension ones
that produce :class:`~repro.model.view.MultiViewSpec` candidates, and from
there the standard phases take over — the one
:class:`~repro.optimizer.plan.Planner` groups views by their dimension
*tuple* (one step per combination, aggregates shared, any reference), and
Execute/Score/Select, the process-wide worker pool and the shared View
Processor do the rest. Run it with
``SeeDB(backend).recommend(request, phases=multiview_phases(3))``; the
request's config, k, reference, filters and deadline all apply.
"""

from __future__ import annotations

from repro.core.space import enumerate_multi_views
from repro.engine.context import ExecutionContext
from repro.engine.phases import (
    ExecutePhase,
    Phase,
    PlanPhase,
    ScorePhase,
    SelectPhase,
    filter_view_space,
)
from repro.model.view import MultiViewSpec
from repro.pruning.base import PruneReport


class MultiViewEnumeratePhase(Phase):
    """Enumerate all ``n_dimensions``-attribute views of the schema, with
    the configured aggregate functions and count views."""

    name = "enumerate"

    def __init__(self, n_dimensions: int = 2):
        self.n_dimensions = n_dimensions

    def run(self, ctx: ExecutionContext) -> None:
        ctx.mark_query_baseline()
        ctx.schema = ctx.cache.schema(ctx.query.table)
        ctx.candidates = enumerate_multi_views(
            ctx.schema,
            self.n_dimensions,
            ctx.config.aggregate_functions,
            ctx.config.include_count_views,
            dimensions=list(ctx.dimensions) if ctx.dimensions is not None else None,
        )
        ctx.candidates = filter_view_space(ctx.candidates, None, ctx.measures)
        ctx.surviving = list(ctx.candidates)


class MultiViewPrunePhase(Phase):
    """Drop views touching any predicate-constrained dimension.

    The tuple-dimension analogue of ``split_predicate_dimensions``: a view
    grouping by a constrained attribute deviates maximally by construction.
    """

    name = "prune"

    def run(self, ctx: ExecutionContext) -> None:
        predicate = ctx.query.predicate
        if predicate is None:
            return
        constrained = predicate.referenced_columns()
        report = PruneReport(
            rule="predicate_dimensions", examined=len(ctx.surviving)
        )
        kept: list[MultiViewSpec] = []
        for view in ctx.surviving:
            overlap = set(view.dimensions) & constrained
            if overlap:
                report.pruned.append(
                    (
                        view,
                        f"dimension(s) {sorted(overlap)} constrained by the "
                        "analyst's predicate (trivially deviating)",
                    )
                )
            else:
                kept.append(view)
        ctx.prune_reports.append(report)
        ctx.surviving = kept


class DropEmptyViewsPhase(Phase):
    """Remove scored views whose aligned series produced no groups.

    A view with no attribute-value combinations (empty table, fully
    disjoint partitions) carries no information; recommending its
    zero-utility placeholder would hand downstream consumers empty
    distributions. Runs between Score and Select.
    """

    name = "filter"

    def run(self, ctx: ExecutionContext) -> None:
        ctx.scored = {
            spec: view for spec, view in ctx.scored.items() if view.groups
        }


def multiview_phases(n_dimensions: int = 2) -> list[Phase]:
    """The multi-attribute pipeline: enumerate ``n_dimensions``-attribute
    views, prune predicate-constrained ones, then plan, execute, score,
    drop empty views and select. There is no Metadata phase, so nothing is
    priced: the planner takes the capability-declared plan kind."""
    return [
        MultiViewEnumeratePhase(n_dimensions),
        MultiViewPrunePhase(),
        PlanPhase(),
        ExecutePhase(),
        ScorePhase(),
        DropEmptyViewsPhase(),
        SelectPhase(),
    ]
