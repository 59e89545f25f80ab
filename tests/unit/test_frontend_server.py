"""Unit tests: the HTTP/JSON frontend over a live in-process server."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.api import RecommendationRequest
from repro.core.config import SeeDBConfig
from repro.frontend.server import (
    SeeDBRequestHandler,
    result_to_json,
    serve_in_thread,
)
from repro.service import single_backend_service


@pytest.fixture
def served(memory_backend):
    """A service + live threaded server over the sales fixture table."""
    service = single_backend_service(memory_backend, SeeDBConfig(k=3))
    server, thread = serve_in_thread(service)
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    service.close()


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read())


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, served):
        _, base = served
        body = get(base, "/healthz")
        assert body["status"] == "ok"
        assert body["backends"] == ["default"]
        assert body["mode"] == "threads"
        assert body["workers"] == []

    def test_views_enumerates_candidate_space(self, served):
        _, base = served
        body = get(base, "/views?table=sales")
        assert body["table"] == "sales"
        assert body["n_views"] == len(body["views"])
        labels = {view["label"] for view in body["views"]}
        assert "sum(amount) by store" in labels
        assert "count(*) by product" in labels

    def test_recommend_returns_chart_ready_views(self, served):
        _, base = served
        body = post(
            base,
            "/recommend",
            {"sql": "SELECT * FROM sales WHERE product = 'Laserwave'", "k": 2},
        )
        assert body["k"] == 2 and len(body["recommendations"]) == 2
        top = body["recommendations"][0]
        assert set(top) >= {
            "label",
            "utility",
            "groups",
            "target_distribution",
            "comparison_distribution",
        }
        assert len(top["groups"]) == len(top["target_distribution"])
        assert body["n_queries"] > 0
        assert "execute" in body["phase_seconds"]

    def test_recommend_config_override(self, served):
        _, base = served
        body = post(
            base,
            "/recommend",
            {
                "sql": "SELECT * FROM sales WHERE product = 'Laserwave'",
                "metric": "euclidean",
                "k": 1,
            },
        )
        assert body["metric"] == "euclidean"

    def test_stats_counts_http_traffic(self, served):
        service, base = served
        payload = {"sql": "SELECT * FROM sales WHERE product = 'Laserwave'"}
        post(base, "/recommend", payload)
        post(base, "/recommend", payload)  # identical: result-cache hit
        stats = get(base, "/stats")
        assert stats["requests"] == 2
        assert stats["executions"] == 1
        assert stats["result_cache_hits"] == 1
        assert stats["backends"]["default"]["backend"] == "memory"
        assert service.stats.requests == 2  # same counters, same object

    def test_http_and_session_share_one_service(self, served):
        from repro.frontend.session import AnalystSession

        service, base = served
        payload = {"sql": "SELECT * FROM sales WHERE product = 'Laserwave'"}
        post(base, "/recommend", payload)
        with AnalystSession(service=service) as session:
            session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        # The interactive session's identical request hit the shared
        # result cache — one execution serves both transports.
        assert service.stats.executions == 1
        assert service.stats.result_cache_hits == 1


def post_raw(base: str, path: str, payload: dict):
    """POST returning ``(body-dict, response-headers)``."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read()), response.headers


class TestVisualizationServing:
    RENDER_BODY = {
        "schema_version": 3,
        "target": "SELECT * FROM sales WHERE product = 'Laserwave'",
        "k": 2,
        "options": {"render": {"format": "vega-lite"}},
    }

    def test_recommend_returns_a_spec_for_every_topk_view(self, served):
        _, base = served
        body = post(base, "/recommend", self.RENDER_BODY)
        frames = body["visualizations"]
        assert len(frames) == len(body["recommendations"]) == 2
        for frame, view in zip(frames, body["recommendations"]):
            assert frame["view"] == view["label"]
            assert frame["spec"]["$schema"].endswith("v5.json")
            assert frame["rationale"]

    def test_emitted_specs_validate_against_vendored_schema(self, served):
        from repro.viz.vega_schema import validate_vega_lite

        _, base = served
        body = post(base, "/recommend", self.RENDER_BODY)
        for frame in body["visualizations"]:
            assert validate_vega_lite(frame["spec"]) == []

    def test_stream_rounds_carry_specs(self, served):
        _, base = served
        payload = dict(self.RENDER_BODY)
        payload["strategy"] = "incremental"
        lines = TestStreaming().post_stream(base, payload)
        for line in lines:
            assert line["visualizations"]
        assert lines[-1]["result"]["visualizations"] == (
            lines[-1]["visualizations"]
        )

    def test_dashboard_serves_self_contained_html(self, served):
        _, base = served
        request = urllib.request.Request(base + "/dashboard?table=sales")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"].startswith("text/html")
            html = response.read().decode("utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "/recommend/stream" in html
        assert '"table": "sales"' in html
        # Self-contained: no external scripts, styles, or fonts.
        for marker in ("src=\"http", "href=\"http", "@import", "cdn"):
            assert marker not in html.lower()

    def test_dashboard_requires_table(self, served):
        _, base = served
        error = TestErrors().expect_error(
            lambda: get(base, "/dashboard"), 400
        )
        assert error["code"] == "missing_field"

    def test_dashboard_unknown_table_structured_400(self, served):
        _, base = served
        TestErrors().expect_error(
            lambda: get(base, "/dashboard?table=missing"), 400
        )

    def test_dashboard_unknown_backend_structured_400(self, served):
        _, base = served
        error = TestErrors().expect_error(
            lambda: get(base, "/dashboard?table=sales&backend=nope"), 400
        )
        assert error["code"] == "unknown_backend"


class TestDeprecationSignaling:
    LEGACY = {"sql": "SELECT * FROM sales WHERE product = 'Laserwave'", "k": 2}

    def test_legacy_flat_body_stamped(self, served):
        _, base = served
        body, headers = post_raw(base, "/recommend", self.LEGACY)
        assert headers["Deprecation"] == "true"
        assert body["deprecation"]["code"] == "legacy_flat_body"
        assert "schema_version 3" in body["deprecation"]["message"]
        assert body["deprecation"]["docs"]

    def test_wire_form_body_not_stamped(self, served):
        _, base = served
        body, headers = post_raw(
            base,
            "/recommend",
            {"schema_version": 3, "target": self.LEGACY["sql"], "k": 2},
        )
        assert headers.get("Deprecation") is None
        assert "deprecation" not in body

    def test_stream_carries_the_header_only(self, served):
        _, base = served
        request = urllib.request.Request(
            base + "/recommend/stream",
            data=json.dumps(self.LEGACY).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Deprecation"] == "true"
            lines = [json.loads(line) for line in response if line.strip()]
        assert all("deprecation" not in line for line in lines)

    def test_legacy_results_otherwise_unchanged(self, served):
        """Deprecation is additive: stripping the notice leaves exactly
        the body a wire-form request for the same work produces."""
        _, base = served
        legacy, _ = post_raw(base, "/recommend", self.LEGACY)
        legacy.pop("deprecation")
        wire, _ = post_raw(
            base,
            "/recommend",
            {"schema_version": 3, "target": self.LEGACY["sql"], "k": 2},
        )
        assert legacy == wire


class TestErrors:
    def expect_error(self, fn, code):
        """HTTP error bodies are structured: {"error": {code, message, field?}}."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        error = json.loads(excinfo.value.read())["error"]
        assert isinstance(error, dict)
        assert "code" in error and "message" in error
        return error

    def test_unknown_route_404(self, served):
        _, base = served
        error = self.expect_error(lambda: get(base, "/nope"), 404)
        assert error["code"] == "not_found"

    def test_views_requires_table(self, served):
        _, base = served
        error = self.expect_error(lambda: get(base, "/views"), 400)
        assert error["code"] == "missing_field"
        assert error["field"] == "table"

    def test_recommend_requires_query(self, served):
        _, base = served
        error = self.expect_error(lambda: post(base, "/recommend", {}), 400)
        assert error["code"] == "missing_field"
        assert error["field"] == "target"
        assert "sql" in error["message"]

    def test_recommend_bad_metric_400(self, served):
        _, base = served
        error = self.expect_error(
            lambda: post(
                base,
                "/recommend",
                {"table": "sales", "metric": "not_a_metric"},
            ),
            400,
        )
        assert error["code"] == "invalid_value"
        assert error["field"] == "metric"

    def test_recommend_unknown_table_400(self, served):
        _, base = served
        self.expect_error(
            lambda: post(base, "/recommend", {"table": "missing"}), 400
        )

    def test_recommend_unknown_field_names_the_field(self, served):
        _, base = served
        error = self.expect_error(
            lambda: post(
                base, "/recommend", {"table": "sales", "bogus_knob": 1}
            ),
            400,
        )
        assert error["code"] == "unknown_field"
        assert error["field"] == "bogus_knob"

    def test_recommend_bad_option_value_names_the_path(self, served):
        _, base = served
        error = self.expect_error(
            lambda: post(
                base,
                "/recommend",
                {"table": "sales", "sample_fraction": 3.0},
            ),
            400,
        )
        assert error["code"] == "invalid_value"
        assert error["field"] == "options"

    def test_recommend_oversized_body_413(self, memory_backend):
        """A Content-Length past the cap is shed before the body is read:
        structured 413, nothing admitted to the service."""
        from repro.frontend.server import make_server
        import threading

        service = single_backend_service(memory_backend, SeeDBConfig(k=3))
        server = make_server(service, max_body_bytes=64)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            error = self.expect_error(
                lambda: post(
                    base,
                    "/recommend",
                    {"sql": "SELECT * FROM sales", "pad": "x" * 256},
                ),
                413,
            )
            assert error["code"] == "payload_too_large"
            assert "64" in error["message"]
            assert service.stats.requests == 0
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()

    def test_recommend_bad_sql_400(self, served):
        _, base = served
        error = self.expect_error(
            lambda: post(base, "/recommend", {"sql": "SELEKT * FROM sales"}),
            400,
        )
        assert error["code"] == "sql_syntax"

    def test_recommend_wrong_schema_version_400(self, served):
        _, base = served
        error = self.expect_error(
            lambda: post(
                base,
                "/recommend",
                {"schema_version": 99, "target": {"table": "sales"}},
            ),
            400,
        )
        assert error["code"] == "schema_version"


class TestConnections:
    """Replies leave on a no-delay socket, and a reply sent before its
    request body was read ends the keep-alive connection: the unread bytes
    must never be parsed as a second request."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    def exchange(self, base: str, raw: bytes) -> tuple[list, bool]:
        """Send raw bytes on one socket; return the replies' status lines
        and bodies, and whether the server closed the connection."""
        host, port = base.removeprefix("http://").split(":")
        data, closed = b"", False
        with socket.create_connection((host, int(port)), timeout=3) as sock:
            sock.sendall(raw)
            try:
                while chunk := sock.recv(65536):
                    data += chunk
                closed = True
            except TimeoutError:
                pass
        replies = []
        while data:
            head, _, data = data.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            fields = dict(line.split(": ", 1) for line in lines[1:])
            length = int(fields["Content-Length"])
            replies.append((lines[0], data[:length]))
            data = data[length:]
        return replies, closed

    def test_accepted_sockets_have_tcp_nodelay(self, served, monkeypatch):
        _, base = served
        seen = []
        setup = SeeDBRequestHandler.setup

        def probe(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(SeeDBRequestHandler, "setup", probe)
        assert get(base, "/healthz")["status"] == "ok"
        assert len(seen) == 1 and seen[0] != 0

    def test_keep_alive_serves_both_requests(self, served):
        """Only an unread body ends the connection: once the body is read,
        a pipelined second request is answered on the same socket."""
        _, base = served
        body = b'{"table": "sales", "k": 1}'
        first = (
            b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        last = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        replies, closed = self.exchange(base, first + last)
        assert [status for status, _ in replies] == [
            "HTTP/1.1 200 OK",
            "HTTP/1.1 200 OK",
        ]
        assert closed

    @pytest.mark.parametrize(
        "request_line, framing, status, code",
        [
            (b"POST /nope", b"Content-Length: %d" % len(SMUGGLED), "404", "not_found"),
            (b"POST /recommend", b"Content-Length: abc", "400", "invalid_request"),
            # rfile.read(-1) would block until the client hangs up; this
            # client keeps its socket open, so only a prompt 400 passes.
            (b"POST /recommend", b"Content-Length: -1", "400", "invalid_request"),
            (b"POST /recommend", b"Transfer-Encoding: chunked", "400", "invalid_request"),
            (b"GET /healthz", b"Content-Length: %d" % len(SMUGGLED), "200", None),
        ],
        ids=[
            "unknown-route",
            "non-integer-length",
            "negative-length",
            "chunked-body",
            "get-with-body",
        ],
    )
    def test_unread_body_is_not_served_as_a_request(
        self, served, request_line, framing, status, code
    ):
        service, base = served
        raw = request_line + b" HTTP/1.1\r\nHost: x\r\n" + framing + b"\r\n\r\n"
        replies, closed = self.exchange(base, raw + self.SMUGGLED)
        assert len(replies) == 1, replies
        assert replies[0][0].split(" ")[1] == status
        if code is not None:
            assert json.loads(replies[0][1])["error"]["code"] == code
        assert closed
        assert service.stats.requests == 0

    def test_a_body_that_never_arrives_drops_only_its_connection(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(SeeDBRequestHandler, "timeout", 0.3)
        service, base = served
        short = b"POST /recommend HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{"
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=10) as stalled:
            stalled.sendall(short)
            assert get(base, "/healthz")["status"] == "ok"
            assert stalled.recv(65536) == b""
        assert get(base, "/healthz")["status"] == "ok"
        assert service.stats.requests == 0

    def test_a_timeout_while_serving_still_gets_a_reply(self, served, monkeypatch):
        """Only the body read drops the connection on a timeout; one
        raised while the request is served is an internal error."""
        service, base = served

        def times_out(request):
            raise TimeoutError("backend stalled")

        monkeypatch.setattr(service, "recommend", times_out)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base, "/recommend", {"sql": "SELECT * FROM sales", "k": 1})
        assert excinfo.value.code == 500
        assert json.loads(excinfo.value.read())["error"]["code"] == "internal_error"


class TestStructuredRequests:
    def test_versioned_wire_form_with_reference(self, served):
        _, base = served
        body = post(
            base,
            "/recommend",
            {
                "schema_version": 1,
                "target": {
                    "table": "sales",
                    "predicate": {
                        "op": "=",
                        "column": "product",
                        "value": "Laserwave",
                    },
                },
                "reference": "complement",
                "k": 2,
            },
        )
        assert body["k"] == 2 and len(body["recommendations"]) == 2

    def test_sql_target_and_query_reference(self, served):
        _, base = served
        body = post(
            base,
            "/recommend",
            {
                "target": "SELECT * FROM sales WHERE product = 'Laserwave'",
                "reference": "SELECT * FROM sales WHERE product = 'Quasar'",
                "k": 1,
            },
        )
        assert len(body["recommendations"]) == 1


class TestStreaming:
    def post_stream(self, base: str, payload: dict) -> list[dict]:
        request = urllib.request.Request(
            base + "/recommend/stream",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            return [json.loads(line) for line in response if line.strip()]

    def test_stream_delivers_rounds_then_final(self, served):
        _, base = served
        payload = {
            "sql": "SELECT * FROM sales WHERE product = 'Laserwave'",
            "k": 2,
            "options": {"n_phases": 4},
        }
        lines = self.post_stream(base, payload)
        assert len(lines) >= 2
        partials, final = lines[:-1], lines[-1]
        assert all(not line["is_final"] for line in partials)
        assert [line["round"] for line in partials] == list(
            range(1, len(partials) + 1)
        )
        assert final["is_final"] and "result" in final
        # The final round repeats the definitive top-k of the full result.
        assert [v["label"] for v in final["recommendations"]] == [
            v["label"] for v in final["result"]["recommendations"]
        ]

    def test_stream_validation_error_is_structured_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.post_stream(base, {"sql": "SELECT * FROM sales", "nope": 1})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "unknown_field"


class TestSerialization:
    def test_result_to_json_round_trips_through_json(self, memory_backend):
        from repro.core.recommender import SeeDB
        from repro.db.expressions import col
        from repro.db.query import RowSelectQuery

        result = SeeDB(memory_backend).recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave")
            )
        )
        payload = result_to_json(result)
        decoded = json.loads(json.dumps(payload))
        assert decoded["table"] == "sales"
        assert len(decoded["recommendations"]) == result.k


class TestStreamTeardown:
    """Client disconnects mid-NDJSON-stream must tear down cleanly: the
    handler's ``finally`` closes its subscription, a lone subscriber's
    departure cancels the execution, and a sibling subscriber coalesced
    onto the same stream is never poisoned by someone else's exit."""

    PAYLOAD = {
        "sql": "SELECT * FROM sales WHERE product = 'Laserwave'",
        "k": 2,
        "options": {"n_phases": 4},
    }

    @pytest.fixture(autouse=True)
    def slow_rounds(self):
        """Stall every incremental round after the first, so round one
        streams immediately and the disconnect lands mid-execution."""
        from repro.testing.faults import (
            FaultInjector,
            FaultSpec,
            install_injector,
            uninstall_injector,
        )

        install_injector(
            FaultInjector(
                [FaultSpec("engine.round", "stall", delay_s=0.2, after=1)]
            )
        )
        yield
        uninstall_injector()

    def open_stream(self, base: str):
        import http.client
        from urllib.parse import urlparse

        parsed = urlparse(base)
        conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=30
        )
        conn.request(
            "POST",
            "/recommend/stream",
            body=json.dumps(self.PAYLOAD),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        return conn, response

    def abort(self, conn, response):
        """Tear the TCP connection down hard, like a vanished client.

        ``conn.close()`` alone is not enough: the response object holds a
        dup of the socket fd (``makefile``), so the connection would stay
        open until GC and the server's writes would keep succeeding.
        """
        import socket

        # With ``Connection: close`` responses the connection object has
        # already detached its socket; the live one sits under the
        # response's buffered reader.
        sock = conn.sock or getattr(response.fp.raw, "_sock", None)
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        response.close()
        conn.close()

    def drain(self, service, timeout=15.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if service.in_flight == 0:
                return True
            time.sleep(0.02)
        return False

    def test_disconnect_cancels_lone_stream_without_poisoning(self, served):
        service, base = served
        conn, response = self.open_stream(base)
        first = json.loads(response.readline())
        assert first["round"] == 1
        self.abort(conn, response)  # abrupt exit: the server hits EPIPE
        assert self.drain(service), "execution leaked after client disconnect"
        assert service.stats.cancelled == 1
        assert service.stats.completed == 0
        # The service is not poisoned: the same request, asked again by a
        # patient client, streams to the final round.
        lines = TestStreaming().post_stream(base, self.PAYLOAD)
        assert lines[-1]["is_final"]
        assert service.stats.completed == 1

    def test_sibling_subscriber_survives_http_disconnect(self, served):
        service, base = served
        leaver_conn, leaver_response = self.open_stream(base)
        assert json.loads(leaver_response.readline())["round"] == 1
        stayer_conn, stayer_response = self.open_stream(base)
        assert service.stats.coalesced == 1  # one shared execution
        self.abort(leaver_conn, leaver_response)
        try:
            lines = [
                json.loads(line)
                for line in stayer_response
                if line.strip()
            ]
        finally:
            stayer_conn.close()
        assert lines[-1]["is_final"]
        assert lines[-1]["result"] is not None
        assert [line["round"] for line in lines[:-1]] == list(
            range(1, len(lines))
        )
        assert self.drain(service)
        assert service.stats.cancelled == 0
        assert service.stats.completed == 1
