"""Multi-attribute views: the paper's stated generalization (§2).

"SEEDB techniques can directly be used to recommend visualizations for
multiple column views (> 2 columns) that are generated via multi-attribute
grouping and aggregation." A :class:`MultiViewSpec` groups by a *tuple* of
dimensions; its distribution ranges over existing attribute-value
combinations. Everything else — the flag-combined execution, partition
merging, normalization, distance scoring, top-k — is exactly the
single-attribute machinery, which is the point the sentence makes: the
recommender below is a phase list over the shared
:class:`~repro.engine.ExecutionEngine` (tuple-dimension enumeration from
:mod:`repro.engine.multiview`, then the standard Plan/Execute/Score/Select
phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.db.aggregates import Aggregate
from repro.db.schema import Schema
from repro.db.types import AttributeRole
from repro.metrics.base import DistanceMetric
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.model.view import ScoredView
from repro.util.errors import ConfigError, QueryError

if TYPE_CHECKING:
    from repro.api.request import RecommendationRequest


@dataclass(frozen=True)
class MultiViewSpec:
    """A view grouping by several dimensions: ``f(m) by (a1, ..., ak)``."""

    dimensions: tuple[str, ...]
    measure: "str | None"
    func: str

    def __post_init__(self) -> None:
        if len(self.dimensions) < 2:
            raise QueryError(
                "multi-attribute views need >= 2 dimensions; use ViewSpec "
                "for single-attribute views"
            )
        if len(set(self.dimensions)) != len(self.dimensions):
            raise QueryError(f"duplicate dimensions in {self.dimensions}")
        if self.measure is None and self.func != "count":
            raise QueryError("only 'count' may omit the measure")

    @property
    def aggregate(self) -> Aggregate:
        return Aggregate(self.func, self.measure)

    @property
    def label(self) -> str:
        measure = self.measure if self.measure is not None else "*"
        dims = ", ".join(self.dimensions)
        return f"{self.func}({measure}) by ({dims})"

    @property
    def sort_key(self) -> tuple:
        return (self.dimensions, self.measure or "", self.func)

    def __lt__(self, other: "MultiViewSpec") -> bool:
        return self.sort_key < other.sort_key


def enumerate_multi_views(
    schema: Schema,
    n_dimensions: int = 2,
    functions: Sequence[str] = ("sum", "avg"),
    include_count: bool = True,
    dimensions: "Sequence[str] | None" = None,
) -> list[MultiViewSpec]:
    """All ``n_dimensions``-attribute views of ``schema``.

    The space is C(|A|, k) x |M| x |F| — combinatorially larger than the
    single-attribute space, which is why the paper's prototype stops at
    k=1 and this generalization is opt-in.
    """
    if n_dimensions < 2:
        raise ConfigError("n_dimensions must be >= 2")
    dimension_names = (
        list(dimensions)
        if dimensions is not None
        else [spec.name for spec in schema.dimensions]
    )
    for name in dimension_names:
        schema.require(name, AttributeRole.DIMENSION)
    measure_names = [spec.name for spec in schema.measures]

    views: list[MultiViewSpec] = []
    for dims in combinations(dimension_names, n_dimensions):
        if include_count:
            views.append(MultiViewSpec(dims, None, "count"))
        for measure in measure_names:
            for func in functions:
                views.append(MultiViewSpec(dims, measure, func))
    return views


class MultiViewRecommender:
    """Top-k recommendation over multi-attribute views.

    Executes one flag-combined query per dimension *combination* (all
    aggregates shared; two queries for a query-vs-query reference),
    reconstructs target/comparison distributions over attribute-value
    tuples, and scores them with the configured metric — all through the
    shared engine phases.
    """

    def __init__(
        self,
        backend: Backend,
        metric: "str | DistanceMetric" = "js",
        normalization: NormalizationPolicy = NormalizationPolicy.SHIFT,
        engine=None,
    ):
        # Imported here (not at module top) because the engine's multiview
        # phases import MultiViewSpec from this module.
        from repro.engine.engine import ExecutionEngine

        if engine is not None and engine.backend is not backend:
            raise QueryError(
                "the provided engine is bound to a different backend"
            )
        self.backend = backend
        self.metric = get_metric(metric)
        self.normalization = normalization
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else ExecutionEngine(backend)

    def recommend(
        self,
        request: "RecommendationRequest",
        n_dimensions: int = 2,
        functions: Sequence[str] = ("sum", "avg"),
        include_count: bool = True,
    ) -> list[ScoredView]:
        """The k most deviating ``n_dimensions``-attribute views for a
        declarative request (reference and dimension/measure filters
        honored)."""
        from repro.api.request import require_request
        from repro.engine.multiview import (
            DropEmptyViewsPhase,
            MultiViewEnumeratePhase,
            MultiViewPrunePhase,
        )
        from repro.engine.phases import (
            ExecutePhase,
            PlanPhase,
            ScorePhase,
            SelectPhase,
        )

        request = require_request(request)
        k = request.k if request.k is not None else 5
        metric = (
            get_metric(request.metric) if request.metric is not None else self.metric
        )
        # The default knobs plan one flag-combined query per dimension
        # combination; nothing is priced, so no statistics are fetched.
        config = SeeDBConfig(
            normalization=self.normalization, k=k, cost_based_planning=False
        )
        phases = [
            MultiViewEnumeratePhase(n_dimensions, functions, include_count),
            MultiViewPrunePhase(),
            PlanPhase(),
            ExecutePhase(),
            # Metric passed as an instance: custom DistanceMetric objects
            # need no registry entry.
            ScorePhase(metric=metric, normalization=self.normalization),
            DropEmptyViewsPhase(),
            SelectPhase(),
        ]
        ctx = self.engine.new_context(
            request.target,
            config,
            k,
            reference=request.reference.resolve(request.target),
            dimensions=request.dimensions,
            measures=request.measures,
        )
        return self.engine.run(phases, ctx).recommendations

    def close(self) -> None:
        """Release the engine's session resources (self-built engines only;
        a caller-injected engine may be shared and stays up)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "MultiViewRecommender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
