"""Machine-readable description of the request and response wire schemas.

:func:`request_json_schema` returns a JSON-Schema-style document for the
current :class:`~repro.api.request.RecommendationRequest` wire form
(``schema_version`` 4; version-1/2/3 payloads remain accepted);
:func:`response_json_schema` does the same for the response frames —
the ``/recommend`` result body, the NDJSON stream round, and the
``visualizations`` entries the v3 ``render`` block adds to both. The
API-stability contract test snapshots these documents (plus the
package's public symbols): any accidental change to field names, option
names, error codes, or strategies fails CI and forces a deliberate
schema-version decision.
"""

from __future__ import annotations

from repro.api.errors import ERROR_CODES
from repro.api.request import (
    ACCEPTED_SCHEMA_VERSIONS,
    CONFIG_OPTION_FIELDS,
    INCREMENTAL_OPTION_DEFAULTS,
    LIFECYCLE_OPTION_DEFAULTS,
    RENDER_FORMATS,
    RENDER_THEMES,
    SCHEMA_VERSION,
    STRATEGIES,
)

_PREDICATE_SCHEMA = {
    "type": "object",
    "description": "Predicate AST node",
    "oneOf": [
        {"properties": {"op": {"const": "true"}}},
        {
            "properties": {
                "op": {"enum": ["=", "!=", "<", "<=", ">", ">="]},
                "column": {"type": "string"},
                "value": {"$ref": "#/definitions/literal"},
            }
        },
        {
            "properties": {
                "op": {"const": "in"},
                "column": {"type": "string"},
                "values": {"type": "array", "items": {"$ref": "#/definitions/literal"}},
            }
        },
        {
            "properties": {
                "op": {"const": "between"},
                "column": {"type": "string"},
                "low": {"$ref": "#/definitions/literal"},
                "high": {"$ref": "#/definitions/literal"},
            }
        },
        {
            "properties": {
                "op": {"enum": ["and", "or"]},
                "operands": {
                    "type": "array",
                    "minItems": 2,
                    "items": {"$ref": "#/definitions/predicate"},
                },
            }
        },
        {
            "properties": {
                "op": {"const": "not"},
                "operand": {"$ref": "#/definitions/predicate"},
            }
        },
    ],
}

_QUERY_SCHEMA = {
    "description": "Row selection: structured object or raw SQL string",
    "oneOf": [
        {"type": "string", "description": "SELECT * FROM t [WHERE ...]"},
        {
            "type": "object",
            "properties": {
                "table": {"type": "string"},
                "predicate": {"$ref": "#/definitions/predicate"},
                "limit": {"type": "integer", "minimum": 0},
                "sql": {"type": "string"},
            },
        },
    ],
}


def request_json_schema() -> dict:
    """The wire schema of RecommendationRequest (current schema_version)."""
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "RecommendationRequest",
        "schema_version": SCHEMA_VERSION,
        "type": "object",
        "required": ["target"],
        "additionalProperties": False,
        "properties": {
            "schema_version": {"enum": sorted(ACCEPTED_SCHEMA_VERSIONS)},
            "target": {"$ref": "#/definitions/query"},
            "reference": {
                "oneOf": [
                    {"enum": ["table", "complement"]},
                    {"type": "string", "description": "SQL of a query reference"},
                    {
                        "type": "object",
                        "properties": {
                            "kind": {"enum": ["table", "complement", "query"]},
                            "query": {"$ref": "#/definitions/query"},
                        },
                        "additionalProperties": False,
                    },
                ]
            },
            "k": {"type": "integer", "minimum": 1},
            "metric": {"type": "string"},
            "dimensions": {"type": "array", "items": {"type": "string"}},
            "measures": {"type": "array", "items": {"type": "string"}},
            "strategy": {"enum": sorted(STRATEGIES)},
            "options": {
                "type": "object",
                # "render" rides at the end: the drift checker treats a
                # changed enum *position* as a breaking change, so new
                # option names append rather than sort in.
                "propertyNames": {
                    "enum": sorted(CONFIG_OPTION_FIELDS)
                    + sorted(INCREMENTAL_OPTION_DEFAULTS)
                    + sorted(LIFECYCLE_OPTION_DEFAULTS)
                    + ["render"]
                },
                "properties": {
                    "render": {"$ref": "#/definitions/render"},
                },
            },
            "backend": {"type": "string"},
        },
        "definitions": {
            "query": _QUERY_SCHEMA,
            "predicate": _PREDICATE_SCHEMA,
            "render": {
                "type": "object",
                "description": (
                    "Response-visualization options (wire schema v3)"
                ),
                "additionalProperties": False,
                "properties": {
                    "format": {"enum": sorted(RENDER_FORMATS)},
                    "theme": {"enum": sorted(RENDER_THEMES)},
                    "max_charts": {
                        "type": ["integer", "null"],
                        "minimum": 1,
                    },
                },
            },
            "literal": {
                "oneOf": [
                    {"type": ["null", "boolean", "integer", "number", "string"]},
                    {
                        "type": "object",
                        "properties": {"$date": {"type": "string"}},
                        "additionalProperties": False,
                    },
                ]
            },
        },
        "error_codes": sorted(ERROR_CODES),
    }


def response_json_schema() -> dict:
    """The wire schema of the response frames (current schema_version).

    Covers the ``POST /recommend`` result body, the NDJSON stream-round
    frame of ``POST /recommend/stream``, and the shared ``visualization``
    and ``deprecation`` objects. Snapshot-tested and drift-checked the
    same way as the request schema: additions need a version bump,
    removals and changes are always breaking.
    """
    from repro.viz.spec import ChartType

    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "RecommendationResponse",
        "schema_version": SCHEMA_VERSION,
        "definitions": {
            "view": {
                "type": "object",
                "description": "One scored view (chart-ready payload)",
                "properties": {
                    "dimension": {
                        "oneOf": [
                            {"type": "string"},
                            {"type": "array", "items": {"type": "string"}},
                        ]
                    },
                    "measure": {"type": ["string", "null"]},
                    "func": {"type": "string"},
                    "label": {"type": "string"},
                    "utility": {"type": ["number", "null"]},
                    "groups": {"type": "array"},
                    "target_distribution": {"type": "array"},
                    "comparison_distribution": {"type": "array"},
                    "max_deviation_group": {},
                },
            },
            "visualization": {
                "type": "object",
                "description": (
                    "One rendered chart, paired 1:1 with a top-k view"
                ),
                "required": ["rank", "view", "chart_type", "rationale",
                             "format"],
                "properties": {
                    "rank": {"type": "integer", "minimum": 1},
                    "view": {
                        "type": "string",
                        "description": "Label of the paired view",
                    },
                    "chart_type": {
                        "enum": sorted(member.value for member in ChartType)
                    },
                    "rationale": {
                        "type": "string",
                        "description": (
                            "Why the selector chose this chart type"
                        ),
                    },
                    "format": {
                        "enum": sorted(
                            fmt for fmt in RENDER_FORMATS if fmt != "none"
                        )
                    },
                    "spec": {
                        "type": "object",
                        "description": (
                            "Vega-Lite v5 spec (format == 'vega-lite')"
                        ),
                    },
                    "svg": {
                        "type": "string",
                        "description": (
                            "Standalone SVG document (format == 'svg')"
                        ),
                    },
                },
            },
            "deprecation": {
                "type": "object",
                "description": (
                    "Present (with a Deprecation response header) when the "
                    "request used a deprecated body form"
                ),
                "required": ["code", "message"],
                "properties": {
                    "code": {"type": "string"},
                    "message": {"type": "string"},
                    "docs": {"type": "string"},
                },
            },
        },
        "result": {
            "type": "object",
            "description": "POST /recommend response body",
            "required": ["table", "predicate", "k", "metric",
                         "recommendations"],
            "properties": {
                "table": {"type": "string"},
                "predicate": {"type": "string"},
                "k": {"type": "integer"},
                "metric": {"type": "string"},
                "recommendations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/view"},
                },
                "n_candidate_views": {"type": "integer"},
                "n_executed_views": {"type": "integer"},
                "n_queries": {"type": "integer"},
                "sample_fraction": {"type": ["number", "null"]},
                "plan_decision": {"type": ["object", "null"]},
                "phase_seconds": {"type": "object"},
                "total_seconds": {"type": "number"},
                "partial": {"type": "boolean"},
                "partial_epsilon": {"type": ["number", "null"]},
                "visualizations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/visualization"},
                    "description": (
                        "Only present when options.render.format != 'none'"
                    ),
                },
                "deprecation": {"$ref": "#/definitions/deprecation"},
            },
        },
        "stream_round": {
            "type": "object",
            "description": "One NDJSON line of POST /recommend/stream",
            "required": ["round", "n_rounds", "is_final", "views_alive",
                         "views_pruned", "recommendations"],
            "properties": {
                "round": {"type": "integer"},
                "n_rounds": {"type": "integer"},
                "is_final": {"type": "boolean"},
                "views_alive": {"type": "integer"},
                "views_pruned": {"type": "integer"},
                "epsilon": {"type": ["number", "null"]},
                "recommendations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/view"},
                },
                "visualizations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/visualization"},
                    "description": (
                        "Per-round specs for the current top-k estimate; "
                        "the final round's match the blocking result's "
                        "bit for bit"
                    ),
                },
                "result": {"$ref": "#/result"},
            },
        },
    }
