"""Multi-attribute views as a swappable Enumerate/Prune phase pair.

The §2 generalization ("SEEDB techniques can directly be used to recommend
visualizations for multiple column views") on the shared engine:
enumeration produces :class:`~repro.core.multiview.MultiViewSpec`
candidates, and from there the standard phases take over — the one
:class:`~repro.optimizer.plan.Planner` groups views by their dimension
*tuple* (one step per combination, aggregates shared, any reference), and
Execute/Score/Select, the persistent worker pool and the shared View
Processor do the rest. The multiview path therefore shares every line of
planning, execution, alignment, normalization, and top-k code with the
batch path, which is the point the paper's sentence makes.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.multiview import MultiViewSpec, enumerate_multi_views
from repro.engine.context import ExecutionContext
from repro.engine.phases import Phase
from repro.pruning.base import PruneReport


class MultiViewEnumeratePhase(Phase):
    """Enumerate all ``n_dimensions``-attribute views of the schema."""

    name = "enumerate"

    def __init__(
        self,
        n_dimensions: int = 2,
        functions: Sequence[str] = ("sum", "avg"),
        include_count: bool = True,
    ):
        self.n_dimensions = n_dimensions
        self.functions = tuple(functions)
        self.include_count = include_count

    def run(self, ctx: ExecutionContext) -> None:
        ctx.mark_query_baseline()
        ctx.schema = ctx.cache.schema(ctx.query.table)
        ctx.candidates = enumerate_multi_views(
            ctx.schema,
            self.n_dimensions,
            self.functions,
            self.include_count,
            dimensions=list(ctx.dimensions) if ctx.dimensions is not None else None,
        )
        from repro.engine.phases import filter_view_space

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
