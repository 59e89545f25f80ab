"""The one declarative request type every SeeDB entry point consumes.

A :class:`RecommendationRequest` bundles the full contract of "given a
query Q, find the views where the target deviates most from a reference":
the target selection, a first-class :class:`~repro.api.reference.Reference`,
the metric and k, optional dimension/measure filters on the view space,
the execution strategy, and validated execution options. It is plain data:
construct it from code, from SQL (:meth:`RecommendationRequest.from_sql`),
or from the versioned wire form (:meth:`RecommendationRequest.from_dict`,
``schema_version`` 3; versions 1 and 2 remain accepted), and hand it to
:meth:`repro.SeeDB.recommend`,
:meth:`repro.SeeDB.recommend_iter`, :class:`repro.service.SeeDBService`,
:class:`repro.AnalystSession`, the CLI, or ``POST /recommend`` — they all
speak this type.

Resolution (:meth:`RecommendationRequest.resolve`) merges the request with
a session's base :class:`~repro.core.config.SeeDBConfig` into a
:class:`ResolvedRequest` — the immutable, fully-validated bundle the
engine and the service's coalescing keys operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Mapping

from repro.api.codec import parse_sql_query, query_from_wire, query_to_wire
from repro.api.errors import ApiError
from repro.api.reference import Reference
from repro.core.config import SeeDBConfig
from repro.db.query import RowSelectQuery
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.model.reference import ResolvedReference
from repro.optimizer.plan import GroupByCombining
from repro.util.errors import ConfigError, MetricError

#: Wire schema version emitted by ``to_dict``. Version 2 added the
#: ``deadline_ms`` lifecycle option; version 3 added the ``render`` block
#: (response visualizations); version 4 removed two options that only
#: benchmarks set. Older payloads are still accepted unless they name a
#: removed option (``unknown_field`` at any version).
SCHEMA_VERSION = 4

#: Wire schema versions ``from_dict`` accepts.
ACCEPTED_SCHEMA_VERSIONS = (1, 2, 3, 4)

#: Execution strategies a request may name.
STRATEGIES = ("batch", "incremental")

#: Incremental-execution options (consumed by the phased executor, not by
#: SeeDBConfig) and their defaults.
INCREMENTAL_OPTION_DEFAULTS: dict[str, Any] = {
    "n_phases": 10,
    "delta": 0.05,
    "min_phases_before_pruning": 2,
    "epsilon_scale": 0.25,
}

#: Request-lifecycle options (consumed by the serving tier / engine
#: boundary checks, not by SeeDBConfig) and their defaults. ``deadline_ms``
#: is the end-to-end latency budget measured from admission: batch
#: executions that blow it fail with ``DeadlineExceeded`` (HTTP 504),
#: incremental ones degrade to a ``partial=True`` result.
LIFECYCLE_OPTION_DEFAULTS: dict[str, Any] = {
    "deadline_ms": None,
}

#: The ``options.render`` block (wire schema version 3): whether — and
#: how — the response carries rendered visualizations alongside the raw
#: view data. ``format`` picks the artifact ("none" keeps pre-v3 behavior
#: exactly), ``theme`` the color scheme of Vega-Lite output, and
#: ``max_charts`` caps how many of the top-k views get charts (None =
#: all of them).
RENDER_OPTION_DEFAULTS: dict[str, Any] = {
    "format": "none",
    "theme": "light",
    "max_charts": None,
}

#: Visualization formats ``options.render.format`` may name.
RENDER_FORMATS = ("none", "vega-lite", "svg")

#: Color themes ``options.render.theme`` may name.
RENDER_THEMES = ("light", "dark")

#: SeeDBConfig fields a request's ``options`` may override.
CONFIG_OPTION_FIELDS = frozenset(
    spec.name for spec in dataclass_fields(SeeDBConfig)
) - {"metric", "k"}  # first-class request fields, not options

_WIRE_KEYS = frozenset(
    {
        "schema_version",
        "target",
        "reference",
        "k",
        "metric",
        "dimensions",
        "measures",
        "strategy",
        "options",
        "backend",
    }
)


def _validate_incremental_option(key: str, value: Any) -> None:
    """Range/type checks for the phased-execution knobs.

    These never pass through SeeDBConfig, so the request must enforce the
    executor's preconditions itself — otherwise a bad value surfaces as a
    mid-pipeline crash (delta=0 → ZeroDivisionError) or, worse, silent
    garbage (n_phases=0 executes nothing and scores every view 0).
    """
    if key in ("n_phases", "min_phases_before_pruning"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ApiError(
                f"{key} must be an integer, got {value!r}",
                code="invalid_value",
                field=f"options.{key}",
            )
        minimum = 1 if key == "n_phases" else 0
        if value < minimum:
            raise ApiError(
                f"{key} must be >= {minimum}, got {value}",
                code="invalid_value",
                field=f"options.{key}",
            )
    elif key == "delta":
        if not isinstance(value, (int, float)) or not (0.0 < value < 1.0):
            raise ApiError(
                f"delta must be in (0, 1), got {value!r}",
                code="invalid_value",
                field="options.delta",
            )
    elif key == "epsilon_scale":
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            raise ApiError(
                f"epsilon_scale must be >= 0, got {value!r}",
                code="invalid_value",
                field="options.epsilon_scale",
            )


def _validate_lifecycle_option(key: str, value: Any) -> None:
    if key == "deadline_ms" and value is not None:
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or value <= 0
        ):
            raise ApiError(
                f"deadline_ms must be a positive number of milliseconds, "
                f"got {value!r}",
                code="invalid_value",
                field="options.deadline_ms",
            )


def _validate_render_block(value: Any) -> dict[str, Any]:
    """Validate ``options.render`` and normalize it (defaults applied).

    Returning the fully-defaulted block makes downstream identity cheap:
    ``{"format": "none"}`` and ``{}`` and an absent block all resolve to
    the same dict, so coalescing keys and cache entries never split on
    spelling differences of "no rendering".
    """
    if not isinstance(value, Mapping):
        raise ApiError(
            f"render must be an object, got {type(value).__name__}",
            code="invalid_value",
            field="options.render",
        )
    unknown = sorted(set(value) - set(RENDER_OPTION_DEFAULTS))
    if unknown:
        raise ApiError(
            f"unknown render option(s) {unknown}; expected one of "
            f"{sorted(RENDER_OPTION_DEFAULTS)}",
            code="unknown_field",
            field=f"options.render.{unknown[0]}",
        )
    block = dict(RENDER_OPTION_DEFAULTS)
    block.update(value)
    if block["format"] not in RENDER_FORMATS:
        raise ApiError(
            f"render format must be one of {list(RENDER_FORMATS)}, got "
            f"{block['format']!r}",
            code="invalid_value",
            field="options.render.format",
        )
    if block["theme"] not in RENDER_THEMES:
        raise ApiError(
            f"render theme must be one of {list(RENDER_THEMES)}, got "
            f"{block['theme']!r}",
            code="invalid_value",
            field="options.render.theme",
        )
    max_charts = block["max_charts"]
    if max_charts is not None and (
        isinstance(max_charts, bool)
        or not isinstance(max_charts, int)
        or max_charts < 1
    ):
        raise ApiError(
            f"max_charts must be a positive integer or null, got "
            f"{max_charts!r}",
            code="invalid_value",
            field="options.render.max_charts",
        )
    return block


def _coerce_option(key: str, value: Any) -> Any:
    """JSON-shaped option values → their config types (lists to tuples,
    enum value strings to enums). Unknown shapes pass through; SeeDBConfig
    validation has the final word."""
    if key == "aggregate_functions" and isinstance(value, list):
        return tuple(value)
    if key == "groupby_combining" and isinstance(value, str):
        try:
            return GroupByCombining(value)
        except ValueError:
            raise ApiError(
                f"unknown groupby_combining {value!r}; expected one of "
                f"{[m.value for m in GroupByCombining]}",
                code="invalid_value",
                field=f"options.{key}",
            ) from None
    if key == "normalization" and isinstance(value, str):
        try:
            return NormalizationPolicy(value)
        except ValueError:
            raise ApiError(
                f"unknown normalization {value!r}; expected one of "
                f"{[m.value for m in NormalizationPolicy]}",
                code="invalid_value",
                field=f"options.{key}",
            ) from None
    return value


def _option_to_wire(value: Any) -> Any:
    if isinstance(value, (GroupByCombining, NormalizationPolicy)):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


@dataclass(frozen=True)
class RecommendationRequest:
    """Declarative recommendation request (see module docstring).

    ``k``/``metric`` of ``None`` defer to the session's base config at
    resolution time; ``dimensions``/``measures`` of ``None`` mean "the
    whole view space". ``options`` overrides any other
    :class:`~repro.core.config.SeeDBConfig` field plus the incremental
    knobs (``n_phases``, ``delta``, ``min_phases_before_pruning``,
    ``epsilon_scale``). ``backend`` names the service backend the request
    targets (ignored by single-backend facades).
    """

    target: RowSelectQuery
    reference: Reference = field(default_factory=Reference.table)
    k: "int | None" = None
    metric: "str | None" = None
    dimensions: "tuple[str, ...] | None" = None
    measures: "tuple[str, ...] | None" = None
    strategy: str = "batch"
    options: Mapping[str, Any] = field(default_factory=dict)
    backend: "str | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.target, RowSelectQuery):
            raise ApiError(
                f"target must be a RowSelectQuery, got "
                f"{type(self.target).__name__} (use from_sql for SQL text)",
                code="invalid_value",
                field="target",
            )
        if not isinstance(self.reference, Reference):
            raise ApiError(
                f"reference must be a Reference, got "
                f"{type(self.reference).__name__}",
                code="invalid_value",
                field="reference",
            )
        if self.k is not None and (
            isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1
        ):
            raise ApiError(
                f"k must be a positive integer, got {self.k!r}",
                code="invalid_value",
                field="k",
            )
        if self.metric is not None:
            try:
                get_metric(self.metric)
            except MetricError as exc:
                raise ApiError(
                    str(exc), code="invalid_value", field="metric"
                ) from exc
        for name in ("dimensions", "measures"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, (list, tuple)) and all(
                isinstance(item, str) and item for item in value
            ):
                object.__setattr__(self, name, tuple(value))
            else:
                raise ApiError(
                    f"{name} must be a list of attribute names, got {value!r}",
                    code="invalid_value",
                    field=name,
                )
        if self.strategy not in STRATEGIES:
            raise ApiError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}",
                code="invalid_value",
                field="strategy",
            )
        if not isinstance(self.options, Mapping):
            raise ApiError(
                f"options must be a mapping, got {type(self.options).__name__}",
                code="invalid_value",
                field="options",
            )
        coerced = {}
        for key, value in self.options.items():
            if key == "render":
                coerced[key] = _validate_render_block(value)
                continue
            if key in INCREMENTAL_OPTION_DEFAULTS:
                _validate_incremental_option(key, value)
            elif key in LIFECYCLE_OPTION_DEFAULTS:
                _validate_lifecycle_option(key, value)
            elif key not in CONFIG_OPTION_FIELDS:
                raise ApiError(
                    f"unknown option {key!r}", code="unknown_field",
                    field=f"options.{key}",
                )
            coerced[key] = _coerce_option(key, value)
        object.__setattr__(self, "options", coerced)
        if self.backend is not None and not isinstance(self.backend, str):
            raise ApiError(
                f"backend must be a string, got {type(self.backend).__name__}",
                code="invalid_value",
                field="backend",
            )
        # Reference/target cross-validation fails at construction, not
        # deep inside the engine.
        self.reference.validate_against(self.target)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sql(cls, sql: str, **kwargs) -> "RecommendationRequest":
        """Build a request from raw SQL (``SELECT * FROM t [WHERE ...]``).

        Keyword arguments are the remaining request fields; ``reference``
        may itself be SQL text (a query reference) or "table"/"complement".
        """
        target = parse_sql_query(sql, "target")
        reference = kwargs.pop("reference", None)
        if isinstance(reference, str):
            reference = Reference.from_dict(reference)
        if reference is not None:
            kwargs["reference"] = reference
        return cls(target=target, **kwargs)

    # -- wire codec ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The versioned wire form (round-trips through ``from_dict``)."""
        payload: dict = {
            "schema_version": SCHEMA_VERSION,
            "target": query_to_wire(self.target),
        }
        if self.reference.kind != "table":
            payload["reference"] = self.reference.to_dict()
        if self.k is not None:
            payload["k"] = self.k
        if self.metric is not None:
            payload["metric"] = self.metric
        if self.dimensions is not None:
            payload["dimensions"] = list(self.dimensions)
        if self.measures is not None:
            payload["measures"] = list(self.measures)
        if self.strategy != "batch":
            payload["strategy"] = self.strategy
        if self.options:
            payload["options"] = {
                key: _option_to_wire(value)
                for key, value in sorted(self.options.items())
            }
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "RecommendationRequest":
        """Decode the wire form, validating every field with a path."""
        if not isinstance(payload, Mapping):
            raise ApiError(
                f"request must be a JSON object, got {type(payload).__name__}",
                code="invalid_request",
            )
        extra = sorted(set(payload) - _WIRE_KEYS)
        if extra:
            raise ApiError(
                f"unknown field(s) {extra}", code="unknown_field",
                field=extra[0],
            )
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version not in ACCEPTED_SCHEMA_VERSIONS:
            raise ApiError(
                f"unsupported schema_version {version!r}; this server speaks "
                f"versions {list(ACCEPTED_SCHEMA_VERSIONS)}",
                code="schema_version",
                field="schema_version",
            )
        if "target" not in payload:
            raise ApiError(
                "request needs a 'target'", code="missing_field", field="target"
            )
        target = query_from_wire(payload["target"], "target")
        reference = Reference.table()
        if payload.get("reference") is not None:
            reference = Reference.from_dict(payload["reference"])
        options = payload.get("options", {})
        if options is None:
            options = {}
        return cls(
            target=target,
            reference=reference,
            k=payload.get("k"),
            metric=payload.get("metric"),
            dimensions=payload.get("dimensions"),
            measures=payload.get("measures"),
            strategy=payload.get("strategy", "batch"),
            options=options,
            backend=payload.get("backend"),
        )

    # -- resolution ---------------------------------------------------------

    def resolve(self, base_config: "SeeDBConfig | None" = None) -> "ResolvedRequest":
        """Merge with a session's base config into a :class:`ResolvedRequest`."""
        config = base_config if base_config is not None else SeeDBConfig()
        incremental = dict(INCREMENTAL_OPTION_DEFAULTS)
        lifecycle = dict(LIFECYCLE_OPTION_DEFAULTS)
        render = dict(RENDER_OPTION_DEFAULTS)
        config_overrides: dict[str, Any] = {}
        for key, value in self.options.items():
            if key == "render":
                render = dict(value)  # normalized by __post_init__
            elif key in INCREMENTAL_OPTION_DEFAULTS:
                incremental[key] = value
            elif key in LIFECYCLE_OPTION_DEFAULTS:
                lifecycle[key] = value
            else:
                config_overrides[key] = value
        if self.metric is not None:
            config_overrides["metric"] = self.metric
        if config_overrides:
            try:
                config = config.with_overrides(**config_overrides)
            except ConfigError as exc:
                raise ApiError(
                    str(exc), code="invalid_value", field="options"
                ) from exc
        if self.strategy == "incremental":
            from repro.engine.incremental import BOUNDED_METRICS

            metric = config.resolve_metric()
            if metric.name not in BOUNDED_METRICS:
                raise ApiError(
                    f"incremental execution needs a [0,1]-bounded metric; "
                    f"{metric.name!r} is not (use one of "
                    f"{sorted(BOUNDED_METRICS)})",
                    code="invalid_value",
                    field="metric",
                )
        return ResolvedRequest(
            query=self.target,
            config=config,
            k=self.k if self.k is not None else config.k,
            reference=self.reference.resolve(self.target),
            dimensions=self.dimensions,
            measures=self.measures,
            strategy=self.strategy,
            incremental=incremental,
            deadline_ms=lifecycle["deadline_ms"],
            render=render,
        )


def require_request(request: Any) -> RecommendationRequest:
    """The check every in-process entry point runs on its input.

    Text and :class:`RowSelectQuery` inputs are converted where a human or
    a socket hands them over (:meth:`RecommendationRequest.from_sql`,
    :meth:`~RecommendationRequest.from_dict`, the constructor); behind
    those edges anything else is a typed error here, not an
    ``AttributeError`` three frames down.
    """
    if not isinstance(request, RecommendationRequest):
        raise ApiError(
            f"expected a RecommendationRequest, got {type(request).__name__} "
            "(wrap SQL text with RecommendationRequest.from_sql(...), a "
            "RowSelectQuery with RecommendationRequest(target=...))",
            code="invalid_value",
            field="request",
        )
    return request


@dataclass(frozen=True)
class ResolvedRequest:
    """A request merged with session defaults: what the engine executes.

    Produced by :meth:`RecommendationRequest.resolve`; every field is
    concrete (no ``None``-means-default left except the view-space
    filters).
    """

    query: RowSelectQuery
    config: SeeDBConfig
    k: int
    reference: ResolvedReference
    dimensions: "tuple[str, ...] | None"
    measures: "tuple[str, ...] | None"
    strategy: str
    #: Phased-execution knobs (n_phases, delta, ...), defaults applied.
    incremental: dict[str, Any]
    #: End-to-end latency budget in milliseconds (None = unbounded).
    deadline_ms: "float | None" = None
    #: Normalized ``options.render`` block (defaults applied). The engine
    #: appends a RenderPhase when ``format`` is not "none".
    render: dict[str, Any] = field(
        default_factory=lambda: dict(RENDER_OPTION_DEFAULTS)
    )

    def key_parts(self) -> tuple:
        """Deterministic identity for coalescing / result caching (the
        service prepends backend name and data version)."""
        from repro.engine.context import describe_predicate

        return (
            self.query.table,
            describe_predicate(self.query),
            self.query.limit,
            repr(self.config),
            self.k,
            self.reference.describe(),
            self.dimensions,
            self.measures,
            self.strategy,
            tuple(sorted(self.incremental.items())),
            # Requests with different deadline budgets must not coalesce:
            # a short-deadline execution's partial answer is not an honest
            # result for a joiner that asked for more time.
            self.deadline_ms,
            # Different render blocks must not coalesce either: the
            # visualizations travel inside the cached result, so a joiner
            # asking for SVG must not receive a Vega-Lite-bearing entry.
            tuple(sorted(self.render.items())),
        )
