"""JSON wire serialization of recommendation results (schema version 3).

One place renders engine objects — scored views, finished results,
progressive rounds — into the plain-JSON payloads every transport (HTTP
endpoints, NDJSON stream, CLI ``--json``) emits, so the wire schema is
defined once and the contract test can snapshot it. The frames carry the
fields of every version so far — ``partial`` / ``partial_epsilon`` since
version 2, ``visualizations`` since version 3 — and the shape is pinned by
:func:`repro.api.schema.response_json_schema`.
"""

from __future__ import annotations

from repro.core.result import RecommendationResult
from repro.model.view import ScoredView


def plain(value):
    """Numpy scalars / exotic keys → JSON-safe plain values."""
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if value == value else None  # NaN → null
    return str(value)


def view_to_json(view: ScoredView) -> dict:
    """One scored view as the frontend's chart-ready payload."""
    spec = view.spec
    return {
        "dimension": spec.dimension if len(spec.keys) == 1 else list(spec.keys),
        "measure": spec.measure,
        "func": spec.func,
        "label": spec.label,
        "utility": plain(view.utility),
        "groups": [plain(group) for group in view.groups],
        "target_distribution": [plain(v) for v in view.target_distribution],
        "comparison_distribution": [
            plain(v) for v in view.comparison_distribution
        ],
        "max_deviation_group": plain(view.max_deviation_group),
    }


def result_to_json(result: RecommendationResult) -> dict:
    """A full recommendation result as the ``/recommend`` response body."""
    payload: dict = {
        "table": result.table,
        "predicate": result.predicate_description,
        "k": result.k,
        "metric": result.metric,
        "recommendations": [
            view_to_json(view) for view in result.recommendations
        ],
        "n_candidate_views": result.n_candidate_views,
        "n_executed_views": result.n_executed_views,
        "n_queries": result.n_queries,
        "sample_fraction": result.sample_fraction,
        "plan_decision": result.plan_decision,
        "phase_seconds": {
            name: round(seconds, 6)
            for name, seconds in result.stopwatch.phases.items()
        },
        "total_seconds": round(result.total_seconds, 6),
        "partial": result.partial,
        "partial_epsilon": result.partial_epsilon,
    }
    # Absent — not null — without a render request: v1/v2 clients see a
    # byte-identical body shape to the pre-v3 server.
    if result.visualizations is not None:
        payload["visualizations"] = result.visualizations
    return payload
