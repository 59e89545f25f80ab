"""The basic framework: SeeDB without any optimization (§3.3).

"Given a user query Q, the basic approach computes all possible two-column
views ... The target and comparison views corresponding to each view are
then computed and each view query is executed independently on the DBMS."

This is the honest baseline every optimization benchmark compares against:
no pruning, two independent queries per view, sequential execution. It is
implemented directly on the backend (not through the planner) so baseline
measurements cannot accidentally inherit optimizer behaviour.

Like every entry point, :meth:`BasicFramework.recommend` consumes a
:class:`~repro.api.RecommendationRequest` (honoring its reference spec and
view-space filters with independent comparison queries).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backends.base import Backend
from repro.core.result import RecommendationResult
from repro.core.space import enumerate_views, split_predicate_dimensions
from repro.core.topk import top_k_views
from repro.model.view import RawViewData
from repro.core.view_processor import ViewProcessor
from repro.engine.context import describe_predicate
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.optimizer.extract import table_series
from repro.util.timing import Stopwatch

if TYPE_CHECKING:
    from repro.api.request import RecommendationRequest


class BasicFramework:
    """Unoptimized view recommendation: one pair of queries per view."""

    def __init__(
        self,
        backend: Backend,
        metric: str = "js",
        normalization: NormalizationPolicy = NormalizationPolicy.SHIFT,
        aggregate_functions: tuple[str, ...] = ("sum", "avg"),
        include_count_views: bool = True,
        exclude_predicate_dimensions: bool = True,
    ):
        self.backend = backend
        self.metric_name = metric
        self.normalization = normalization
        self.processor = ViewProcessor(get_metric(metric), normalization)
        self.aggregate_functions = aggregate_functions
        self.include_count_views = include_count_views
        self.exclude_predicate_dimensions = exclude_predicate_dimensions

    def recommend(self, request: "RecommendationRequest") -> RecommendationResult:
        """Score every candidate view with independent queries; return top-k.

        The comparison query of each view filters on the request's
        resolved reference (``None`` for the whole-table default) — the
        basic framework supports every reference kind because its queries
        are never flag-combined.
        """
        from repro.api.request import require_request
        from repro.engine.phases import filter_view_space

        query = require_request(request).target
        k = request.k if request.k is not None else 5
        reference = request.reference.resolve(query)
        processor = self.processor
        metric_name = self.metric_name
        if request.metric is not None:
            metric_name = request.metric
            processor = ViewProcessor(get_metric(metric_name), self.normalization)
        stopwatch = Stopwatch()
        queries_before = self.backend.queries_executed

        with stopwatch.time("enumerate"):
            schema = self.backend.schema(query.table)
            views = enumerate_views(
                schema,
                functions=self.aggregate_functions,
                include_count=self.include_count_views,
            )
            views = filter_view_space(
                views, request.dimensions, request.measures
            )
            if self.exclude_predicate_dimensions:
                views, _excluded = split_predicate_dimensions(views, query.predicate)

        raw_views: list[RawViewData] = []
        with stopwatch.time("execute"):
            for view in views:
                target_result = self.backend.execute(
                    view.target_query(query.table, query.predicate)
                )
                comparison_result = self.backend.execute(
                    view.comparison_query(query.table, reference.predicate)
                )
                target_keys, target_values = table_series(
                    target_result, view.dimension, view.aggregate.alias
                )
                comparison_keys, comparison_values = table_series(
                    comparison_result, view.dimension, view.aggregate.alias
                )
                raw_views.append(
                    RawViewData(
                        spec=view,
                        target_keys=target_keys,
                        target_values=target_values,
                        comparison_keys=comparison_keys,
                        comparison_values=comparison_values,
                    )
                )

        with stopwatch.time("score"):
            scored = processor.score_all(raw_views)

        with stopwatch.time("select"):
            recommendations = top_k_views(scored.values(), k)

        return RecommendationResult.from_scored(
            scored,
            recommendations,
            table=query.table,
            predicate_description=describe_predicate(query),
            k=k,
            metric=metric_name,
            prune_reports=[],
            stopwatch=stopwatch,
            n_candidate_views=len(views),
            n_executed_views=len(views),
            n_queries=self.backend.queries_executed - queries_before,
            plan_description=f"basic framework: {2 * len(views)} independent queries",
            reference_description=reference.describe(),
        )


__all__ = ["BasicFramework"]
