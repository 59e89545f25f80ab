"""Stdlib HTTP/JSON frontend over a :class:`SeeDBService`.

The demo paper shows SeeDB "as a middleware layer that can run on top of
any SQL-compliant DBMS" with a browser frontend (Figure 5); this module is
the transport for that: a threaded ``http.server`` speaking JSON, so any
number of analysts (or the bundled CLI/`AnalystSession`) hit the same
warm service — same engine caches, same coalescing, same stats.

Request bodies are validated through the declarative request API
(:mod:`repro.api`): ``POST /recommend`` accepts either the versioned wire
form of a :class:`~repro.api.RecommendationRequest` (a ``target`` field,
``schema_version`` 4; versions 1-3 still accepted) or the legacy flat
form (``sql``/``table`` plus whitelisted config overrides — deprecated:
responses to it carry a ``Deprecation: true`` header and a structured
``deprecation`` object pointing at the README's Public API section),
and every validation failure returns a structured 400 —
``{"error": {"code": ..., "message": ..., "field": ...}}`` — instead of a
free-text message.

Endpoints
---------

* ``GET /healthz`` — liveness plus registered backend names.
* ``GET /stats`` — the service's :meth:`SeeDBService.snapshot`.
* ``GET /views?backend=NAME&table=TABLE`` — the enumerated candidate view
  space (dimension, measure, function triples) for one table.
* ``GET /dashboard?backend=NAME&table=TABLE[&where=...][&k=N]`` — a
  self-contained live-dashboard HTML page (no external assets) that
  consumes ``POST /recommend/stream`` with ``render.format="vega-lite"``
  and animates the top-k converging.
* ``POST /recommend`` — a request body as above; returns serialized
  recommendations, plus a ``visualizations`` list when the request's
  ``options.render`` asks for charts.
* ``POST /recommend/stream`` — same body; responds with NDJSON, one
  :class:`~repro.api.PartialResult` round per line (progressive top-k from
  the incremental engine) — each round carrying refreshed ``visualizations``
  frames when rendering — the last line carrying the final result.

Run one with ``seedb serve --dataset store_orders`` or programmatically
via :func:`make_server` (port 0 picks a free port — the tests do this).
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.api import ApiError, RecommendationRequest
from repro.api.wire import result_to_json, view_to_json
from repro.core.space import enumerate_views
from repro.service import DEFAULT_BACKEND, SeeDBService
from repro.util.errors import ReproError, ServiceError

#: Largest request body accepted before replying 413 (override per server
#: with ``SeeDBServer(..., max_body_bytes=...)``). Recommend bodies are a
#: few KB; anything near this bound is a bug or abuse, and reading it
#: would let one client pin a handler thread on a multi-megabyte parse.
MAX_BODY_BYTES = 1024 * 1024

#: Seconds a socket read or write may wait before the connection is
#: dropped: a client that declares more body bytes than it sends, or
#: idles on a keep-alive connection, releases its handler thread.
READ_TIMEOUT_S = 30.0

#: Config fields a legacy flat request body may override per call. A
#: deliberate whitelist: serving knobs stay server-side, analyst knobs are
#: free. (New-style bodies put these under "options", where the request
#: schema validates them.)
OVERRIDABLE_CONFIG_FIELDS = frozenset(
    {
        "metric",
        "aggregate_functions",
        "include_count_views",
        "sample_fraction",
        "n_workers",
        "exclude_predicate_dimensions",
        "prune_low_variance",
        "prune_cardinality",
        "prune_correlated",
    }
)

#: Legacy flat keys lifted into first-class request fields.
_LEGACY_REQUEST_FIELDS = (
    "backend",
    "k",
    "metric",
    "reference",
    "strategy",
    "dimensions",
    "measures",
)

#: The structured deprecation notice attached to responses whose request
#: arrived in the legacy flat body form. The legacy form still works —
#: deprecation here means "announce, point at the canonical form, keep
#: serving", not "break".
LEGACY_BODY_DEPRECATION = {
    "code": "legacy_flat_body",
    "message": (
        "flat request bodies (sql/table + top-level config fields) are "
        "deprecated; send the versioned wire form (schema_version 3, "
        "a 'target' object, overrides under 'options')"
    ),
    "docs": "README.md#public-api",
}


def decode_request(payload) -> "tuple[RecommendationRequest, dict | None]":
    """Decode an HTTP body; returns ``(request, deprecation-or-None)``.

    The second element is :data:`LEGACY_BODY_DEPRECATION` when the body
    used the legacy flat form, so endpoint handlers can stamp the
    response (``Deprecation: true`` header + ``deprecation`` body field)
    without re-detecting the body shape.
    """
    is_wire_form = isinstance(payload, dict) and (
        "target" in payload or "schema_version" in payload
    )
    request = request_from_payload(payload)
    return request, (None if is_wire_form else LEGACY_BODY_DEPRECATION)


def request_from_payload(payload) -> RecommendationRequest:
    """Decode an HTTP body into a :class:`RecommendationRequest`.

    A body carrying ``target`` (or an explicit ``schema_version``) is the
    versioned wire form and goes through the strict codec; otherwise the
    legacy flat form is translated — ``sql``/``table`` into the target,
    whitelisted config fields into options — and validated by the same
    schema, so unknown fields and bad values fail with the same structured
    error taxonomy either way.
    """
    if not isinstance(payload, dict):
        raise ApiError(
            f"request body must be a JSON object, got {type(payload).__name__}",
            code="invalid_request",
        )
    if "target" in payload or "schema_version" in payload:
        return RecommendationRequest.from_dict(payload)

    remaining = dict(payload)
    sql = remaining.pop("sql", None)
    table = remaining.pop("table", None)
    if sql is None and table is None:
        raise ApiError(
            '/recommend requires "sql", "table", or a structured "target"',
            code="missing_field",
            field="target",
        )
    wire: dict = {"target": sql if sql is not None else {"table": table}}
    for key in _LEGACY_REQUEST_FIELDS:
        if key in remaining:
            wire[key] = remaining.pop(key)
    options = dict(remaining.pop("options", None) or {})
    for key in list(remaining):
        if key in OVERRIDABLE_CONFIG_FIELDS:
            options[key] = remaining.pop(key)
    if remaining:
        extra = sorted(remaining)
        raise ApiError(
            f"unknown field(s) {extra}; overridable config fields: "
            f"{sorted(OVERRIDABLE_CONFIG_FIELDS)}",
            code="unknown_field",
            field=extra[0],
        )
    if options:
        wire["options"] = options
    return RecommendationRequest.from_dict(wire)


def error_body(error: Exception, code: str = "invalid_request") -> dict:
    """The structured ``error`` object for a failure response."""
    if isinstance(error, ApiError):
        return {"error": error.to_dict()}
    if isinstance(error, ServiceError):
        body: dict = {"code": error.code, "message": str(error)}
        if error.retry_after is not None:
            body["retry_after"] = error.retry_after
        return {"error": body}
    return {"error": {"code": code, "message": str(error)}}


def _parse_json(body: bytes):
    try:
        return json.loads(body.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ApiError(f"invalid JSON body: {exc}", code="invalid_request") from exc


# -- request handling ------------------------------------------------------


class SeeDBRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the service attached to the server."""

    server_version = "seedb"
    #: Set by :func:`make_server` on the server object; read via self.server.
    protocol_version = "HTTP/1.1"
    #: ``StreamRequestHandler.setup()`` sets ``TCP_NODELAY`` on each accepted
    #: socket. A reply is a header write then a body write; with Nagle on,
    #: the body of every keep-alive reply waits out the client's delayed
    #: ACK (~40 ms).
    disable_nagle_algorithm = True
    #: ``StreamRequestHandler.setup()`` puts this timeout on each socket.
    timeout = READ_TIMEOUT_S

    @property
    def service(self) -> SeeDBService:
        return self.server.service  # type: ignore[attr-defined]

    # Silence per-request stderr logging (tests and demos run servers
    # in-process); failures still surface through JSON error bodies.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        if "Content-Length" in self.headers or "Transfer-Encoding" in self.headers:
            # A GET's body is never read: see do_POST's unknown route.
            self.close_connection = True
        try:
            if parsed.path == "/healthz":
                # Delegated to the service so the cluster tier can report
                # per-worker liveness; "degraded" (some workers down) is
                # still a 200 — the service answers, capacity is reduced.
                health = self.service.health()
                self._reply(200 if health["status"] != "down" else 503, health)
            elif parsed.path == "/stats":
                self._reply(200, self.service.snapshot())
            elif parsed.path == "/views":
                self._reply(200, self._views(parse_qs(parsed.query)))
            elif parsed.path == "/dashboard":
                html = self._dashboard(parse_qs(parsed.query))
                self._send(200, html.encode("utf-8"), "text/html; charset=utf-8")
            else:
                self._not_found(parsed.path)
        except ReproError as error:
            self._reply_error(error)
        except Exception as error:  # noqa: BLE001 - keep-alive clients need
            # a response body, not a dropped connection, on internal bugs.
            self._reply(500, error_body(error, code="internal_error"))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        if parsed.path == "/recommend":
            handler = self._recommend
        elif parsed.path == "/recommend/stream":
            handler = self._recommend_stream
        else:
            # The body is never read: its bytes would be parsed as the next
            # request on this connection, so the reply ends it.
            self.close_connection = True
            self._not_found(parsed.path)
            return
        try:
            try:
                body = self._read_body()
            except TimeoutError:
                # The body did not arrive within ``timeout``: as the stdlib
                # does for a request line, the connection ends without a
                # reply.
                self.close_connection = True
                return
            handler(_parse_json(body))
        except (ReproError, TypeError) as error:
            self._reply_error(error)
        except Exception as error:  # noqa: BLE001 - see do_GET
            self._reply(500, error_body(error, code="internal_error"))

    # -- endpoint bodies ---------------------------------------------------

    def _views(self, params: dict) -> dict:
        backend_name = params.get("backend", [DEFAULT_BACKEND])[0]
        tables = params.get("table")
        if not tables:
            raise ApiError(
                "/views requires a table=... query parameter",
                code="missing_field",
                field="table",
            )
        table = tables[0]
        engine = self.service.engine(backend_name)
        config = self.service.config(backend_name)
        schema = engine.cache.schema(table)
        views = enumerate_views(
            schema,
            functions=config.aggregate_functions,
            include_count=config.include_count_views,
        )
        return {
            "backend": backend_name,
            "table": table,
            "n_views": len(views),
            "views": [
                {
                    "dimension": view.dimension,
                    "measure": view.measure,
                    "func": view.func,
                    "label": view.label,
                }
                for view in views
            ],
        }

    def _dashboard(self, params: dict) -> str:
        """The live-dashboard page (validated before any HTML goes out).

        Bad backend/table names must fail as structured JSON 400s, not as
        a dashboard that errors after load — so the lookups the page will
        depend on run here first.
        """
        backend_name = params.get("backend", [DEFAULT_BACKEND])[0]
        tables = params.get("table")
        if not tables:
            raise ApiError(
                "/dashboard requires a table=... query parameter",
                code="missing_field",
                field="table",
            )
        table = tables[0]
        self.service.engine(backend_name).cache.schema(table)
        k = self.service.config(backend_name).k
        if "k" in params:
            try:
                k = int(params["k"][0])
            except ValueError:
                raise ApiError(
                    f"k must be an integer, got {params['k'][0]!r}",
                    code="invalid_value",
                    field="k",
                ) from None
        where = params.get("where", [None])[0]
        from repro.viz.html_report import render_dashboard_page

        return render_dashboard_page(backend_name, table, k, where=where)

    def _recommend(self, payload: dict) -> None:
        request, deprecation = decode_request(payload)
        result = self.service.recommend(request)
        body = result_to_json(result)
        headers = None
        if deprecation is not None:
            body["deprecation"] = deprecation
            headers = {"Deprecation": "true"}
        self._reply(200, body, headers=headers)

    def _recommend_stream(self, payload: dict) -> None:
        """NDJSON progressive delivery: one PartialResult per line.

        The response carries no Content-Length (its length is unknown
        until the last round), so the connection closes at stream end —
        signalled up front with ``Connection: close``. Validation errors
        are ordinary JSON 400s; a failure *mid-stream* is delivered as a
        final ``{"error": ...}`` line, since the 200 header is already on
        the wire.
        """
        request, deprecation = decode_request(payload)
        stream = self.service.recommend_stream(request)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        if deprecation is not None:
            # NDJSON lines are PartialResult rounds, so the notice rides
            # the header alone here (the blocking endpoint carries both).
            self.send_header("Deprecation", "true")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        # From here the 200 status is on the wire: NOTHING may propagate
        # to do_POST's error handler (it would write a second status line
        # into the streaming body). Any failure — execution error, client
        # disconnect mid-stream — ends as a best-effort error line.
        try:
            for partial in stream:
                line = json.dumps(partial.to_dict()) + "\n"
                self.wfile.write(line.encode("utf-8"))
                self.wfile.flush()
        except Exception as error:  # noqa: BLE001 - headers already sent
            code = "invalid_request" if isinstance(error, ReproError) else "internal_error"
            try:
                self.wfile.write(
                    (json.dumps(error_body(error, code=code)) + "\n").encode("utf-8")
                )
                self.wfile.flush()
            except OSError:
                pass  # client already gone; the broadcast drains regardless
        finally:
            # Deterministic unsubscribe: a client that disconnected
            # mid-stream (BrokenPipeError above) must release its
            # subscription *now*, not at GC — the last subscriber leaving
            # is what cancels the producing execution.
            stream.close()

    # -- plumbing ----------------------------------------------------------

    def _read_body(self) -> bytes:
        limit = getattr(self.server, "max_body_bytes", MAX_BODY_BYTES)
        chunked = "Transfer-Encoding" in self.headers
        declared = self.headers.get("Content-Length", "0").strip()
        length = int(declared) if declared.isdecimal() and not chunked else -1
        if not 0 <= length <= limit:
            # Rejected *before* reading: an oversized body never enters
            # memory, a negative length would read until the client hangs
            # up, and chunked bodies are not decoded. The unread bytes
            # would be parsed as the next request on this connection, so
            # the reply ends it.
            self.close_connection = True
            if length > limit:
                raise ApiError(
                    f"request body of {length} bytes exceeds the "
                    f"{limit}-byte limit",
                    code="payload_too_large",
                )
            raise ApiError(
                "a request body needs a non-negative integer Content-Length "
                f"and no Transfer-Encoding; got Content-Length {declared!r}",
                code="invalid_request",
            )
        return self.rfile.read(length) if length else b"{}"

    def _reply_error(self, error: Exception) -> None:
        """Map a typed failure onto its HTTP status (plus Retry-After).

        The lifecycle taxonomy carries its own mapping: ``Overloaded`` →
        429, ``Cancelled`` / ``WorkerLost`` → 503, ``DeadlineExceeded`` →
        504. API validation failures stay 400, except the body-size
        rejection, which is the one transport-level 413.
        """
        status, headers = 400, {}
        if isinstance(error, ServiceError):
            status = error.http_status
            if error.retry_after is not None:
                headers["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
        elif isinstance(error, ApiError) and error.code == "payload_too_large":
            status = 413
        self._reply(status, error_body(error), headers=headers)

    def _not_found(self, path: str) -> None:
        message = f"no route {path!r}"
        self._reply(404, {"error": {"code": "not_found", "message": message}})

    def _reply(self, status: int, payload: dict, headers: "dict | None" = None) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"), "application/json", headers)

    def _send(
        self, status: int, body: bytes, content_type: str, headers: "dict | None" = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class SeeDBServer(ThreadingHTTPServer):
    """A threaded HTTP server bound to one :class:`SeeDBService`.

    Threaded is the point: overlapping requests reach the service
    concurrently, which is what its coalescing and bounded scheduling are
    for. ``daemon_threads`` keeps per-request threads from pinning the
    process at shutdown.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple,
        service: SeeDBService,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        super().__init__(address, SeeDBRequestHandler)
        self.service = service
        self.max_body_bytes = max_body_bytes


def make_server(
    service: SeeDBService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> SeeDBServer:
    """Bind a :class:`SeeDBServer`; ``port=0`` picks a free port."""
    return SeeDBServer((host, port), service, max_body_bytes=max_body_bytes)


def serve_in_thread(service: SeeDBService, host: str = "127.0.0.1", port: int = 0):
    """Start a server on a daemon thread; returns ``(server, thread)``.

    The embedding pattern used by tests and the serving demo::

        server, thread = serve_in_thread(service)
        ... http requests against server.server_address ...
        server.shutdown(); thread.join()
    """
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
