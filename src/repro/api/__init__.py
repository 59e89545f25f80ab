"""The public request API: one declarative type for every entry point.

SeeDB's contract — "given a query Q, find the views where the target
deviates most from a reference" — as a first-class, serializable object:

* :class:`RecommendationRequest` — target spec + reference spec + metric /
  k / view-space filters + execution options (including the
  ``deadline_ms`` latency budget and the ``render`` visualization block),
  with a versioned JSON codec (``schema_version`` 4, versions 1-3
  accepted) and :meth:`~RecommendationRequest.from_sql` ingestion of raw
  SQL.
* :class:`Reference` — pluggable comparison side: the whole table (§2
  default), the target's complement (Q vs D ∖ Q), or an arbitrary second
  query (query-vs-query, temporal slices).
* :class:`PartialResult` — progressive delivery rounds from
  :meth:`repro.SeeDB.recommend_iter` and ``POST /recommend/stream``.
* :class:`ApiError` — structured failure taxonomy (code + field path).

``SeeDB``, ``SeeDBService`` and ``BasicFramework`` take a
:class:`RecommendationRequest` and nothing else; ``AnalystSession``, the
CLI, and the HTTP frontend are the edges that build one from SQL text,
flags, or a JSON body.
"""

from repro.api.codec import (
    expression_from_wire,
    expression_to_wire,
    parse_sql_query,
    query_from_wire,
    query_to_wire,
)
from repro.api.errors import ERROR_CODES, ApiError
from repro.api.progressive import PartialResult
from repro.api.reference import Reference
from repro.api.request import (
    ACCEPTED_SCHEMA_VERSIONS,
    INCREMENTAL_OPTION_DEFAULTS,
    LIFECYCLE_OPTION_DEFAULTS,
    RENDER_FORMATS,
    RENDER_OPTION_DEFAULTS,
    RENDER_THEMES,
    SCHEMA_VERSION,
    STRATEGIES,
    RecommendationRequest,
    ResolvedRequest,
)
from repro.api.schema import request_json_schema, response_json_schema
from repro.api.wire import result_to_json, view_to_json

__all__ = [
    "ApiError",
    "ERROR_CODES",
    "PartialResult",
    "Reference",
    "RecommendationRequest",
    "ResolvedRequest",
    "SCHEMA_VERSION",
    "ACCEPTED_SCHEMA_VERSIONS",
    "STRATEGIES",
    "INCREMENTAL_OPTION_DEFAULTS",
    "LIFECYCLE_OPTION_DEFAULTS",
    "RENDER_OPTION_DEFAULTS",
    "RENDER_FORMATS",
    "RENDER_THEMES",
    "request_json_schema",
    "response_json_schema",
    "expression_to_wire",
    "expression_from_wire",
    "query_to_wire",
    "query_from_wire",
    "parse_sql_query",
    "result_to_json",
    "view_to_json",
]
