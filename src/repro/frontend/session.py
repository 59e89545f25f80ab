"""Analyst sessions: issue queries, inspect views, drill down.

Models the interactive loop of §3.2: "easily examine these 'most
interesting' views at a glance, explore specific views in detail via
drill-downs, and study metadata for each view (e.g. size of result, sample
data, value with maximum change and other statistics)."
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.api.request import RecommendationRequest, require_request
from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.core.result import RecommendationResult
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.model.view import ScoredView
from repro.service import DEFAULT_BACKEND, SeeDBService, single_backend_service
from repro.util.errors import QueryError
from repro.viz.chart_select import dimension_spec_for
from repro.viz.render_text import render_ascii
from repro.viz.spec import view_to_chart_spec


def _to_request(
    query: "RecommendationRequest | RowSelectQuery | str", k: "int | None"
) -> RecommendationRequest:
    """Fold what an analyst typed into the one in-process request type."""
    if isinstance(query, str):
        return RecommendationRequest.from_sql(query, k=k)
    if isinstance(query, RowSelectQuery):
        return RecommendationRequest(target=query, k=k)
    request = require_request(query)
    return request if k is None else replace(request, k=k)


@dataclass
class ViewMetadata:
    """The per-view statistics panel of the frontend (§3.2)."""

    n_groups: int
    sample_groups: list[tuple[Any, float, float]]  # (group, target, comparison)
    max_change_group: Any
    max_change_delta: float
    utility: float
    #: Chi-square p-value of the deviation (None when not applicable,
    #: e.g. negative-valued measures).
    p_value: "float | None" = None


class AnalystSession:
    """An interactive SeeDB session routed through a :class:`SeeDBService`.

    Keeps the query history, exposes the latest recommendations, and
    supports drill-down: restricting the current query to one group of a
    recommended view and re-running the recommendation.

    Every ``issue()`` goes through the service's request scheduler, so an
    interactive session shares caches, request coalescing, and stats with
    the HTTP frontend and with every other session on the same service. A
    session built from a bare ``backend`` wraps it in a private service
    (owned, closed with the session); pass ``service=`` to join a shared
    one instead.
    """

    def __init__(
        self,
        backend: "Backend | None" = None,
        config: "SeeDBConfig | None" = None,
        service: "SeeDBService | None" = None,
        backend_name: str = DEFAULT_BACKEND,
    ):
        if service is None:
            if backend is None:
                raise QueryError(
                    "AnalystSession needs a backend or a service to join"
                )
            service = single_backend_service(backend, config)
            self._owns_service = True
        else:
            if backend is not None and service.backend(backend_name) is not backend:
                raise QueryError(
                    f"backend {backend_name!r} of the provided service is a "
                    "different object than the backend argument"
                )
            if config is not None:
                raise QueryError(
                    "pass either config or service, not both: a joined "
                    "service already carries its per-backend config "
                    "(register the backend with that config instead)"
                )
            self._owns_service = False
        self.service = service
        self.backend_name = backend_name
        self.backend = service.backend(backend_name)
        #: The service's engine for this backend: one cache + shared worker
        #: pool + access log shared by every session on it.
        self.engine = service.engine(backend_name)
        self.history: list[tuple[RowSelectQuery, RecommendationResult]] = []

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """End the session; a session-owned service is torn down with it
        (dropping cached sample tables once no other engine holds them)."""
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "AnalystSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- issuing queries ------------------------------------------------

    def issue(
        self,
        query: "RecommendationRequest | RowSelectQuery | str",
        k: "int | None" = None,
    ) -> RecommendationResult:
        """Run a recommendation through the service and record it.

        ``query`` is canonically a
        :class:`~repro.api.RecommendationRequest` (reference specs,
        view-space filters, and execution options all honored); this is a
        front end, so a :class:`RowSelectQuery` or SQL string is wrapped
        into one here, and an explicit ``k`` overrides the request's own.
        """
        request = _to_request(query, k)
        result = self.service.recommend(request, backend=self.backend_name)
        self.history.append((request.target, result))
        return result

    def issue_stream(
        self,
        query: "RecommendationRequest | RowSelectQuery | str",
        k: "int | None" = None,
    ):
        """Progressive :meth:`issue`: yield
        :class:`~repro.api.PartialResult` rounds through the service's
        coalescing-aware stream fan-out, recording the final result in the
        session history like a blocking call."""
        request = _to_request(query, k)
        for partial in self.service.recommend_stream(
            request, backend=self.backend_name
        ):
            if partial.is_final and partial.result is not None:
                self.history.append((request.target, partial.result))
            yield partial

    @property
    def last_query(self) -> RowSelectQuery:
        self._require_history()
        return self.history[-1][0]

    @property
    def last_result(self) -> RecommendationResult:
        self._require_history()
        return self.history[-1][1]

    # -- exploring views ---------------------------------------------------

    def view_metadata(self, view: ScoredView, sample_size: int = 5) -> ViewMetadata:
        """The §3.2 metadata panel for one recommended view."""
        deltas = [
            abs(t - c)
            for t, c in zip(view.target_distribution, view.comparison_distribution)
        ]
        max_index = max(range(len(deltas)), key=deltas.__getitem__) if deltas else 0
        sample = [
            (group, float(target), float(comparison))
            for group, target, comparison in zip(
                view.groups[:sample_size],
                view.target_values[:sample_size],
                view.comparison_values[:sample_size],
            )
        ]
        from repro.metrics.significance import view_significance
        from repro.util.errors import MetricError

        try:
            p_value = view_significance(view).p_value
        except MetricError:
            p_value = None  # negative/empty values: the test does not apply
        return ViewMetadata(
            n_groups=len(view.groups),
            sample_groups=sample,
            max_change_group=view.groups[max_index] if view.groups else None,
            max_change_delta=float(deltas[max_index]) if deltas else 0.0,
            utility=view.utility,
            p_value=p_value,
        )

    def show(self, view: ScoredView, width: int = 40) -> str:
        """ASCII rendering of one view (terminal stand-in for Figure 5)."""
        schema = self.backend.schema(self.last_query.table)
        dimension_spec = dimension_spec_for(view.spec, schema)
        return render_ascii(view_to_chart_spec(view, dimension_spec), width=width)

    # -- drill-down ----------------------------------------------------------

    def drill_down(
        self, view: ScoredView, group: Any, k: "int | None" = None
    ) -> RecommendationResult:
        """Restrict the last query to one group of ``view`` and re-recommend.

        E.g. from "sales by region deviates" drill into region='west' to
        see what deviates *within* that slice.
        """
        self._require_history()
        if group not in view.groups:
            raise QueryError(
                f"group {group!r} is not in view {view.spec.label!r}; "
                f"groups: {view.groups[:10]}"
            )
        last = self.last_query
        refinement = col(view.spec.dimension) == group
        predicate = (
            refinement if last.predicate is None else (last.predicate & refinement)
        )
        return self.issue(RowSelectQuery(last.table, predicate), k=k)

    def roll_up(self, k: "int | None" = None) -> RecommendationResult:
        """Undo the most recent drill-down and re-recommend (§1 step 4,
        "further interact with the displayed views (e.g., by drilling down
        or rolling up)")."""
        if len(self.history) < 2:
            raise QueryError(
                "nothing to roll up: the session has no earlier query"
            )
        self.history.pop()  # discard the drilled-down step
        previous_query, _previous_result = self.history.pop()
        return self.issue(previous_query, k=k)

    def _require_history(self) -> None:
        if not self.history:
            raise QueryError("no query issued yet in this session")
