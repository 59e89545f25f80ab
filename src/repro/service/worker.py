"""The cluster worker process: one shard of the serving tier.

Each worker is a long-lived process owning private *replicas* of the
service's backends — constructed from the backend's URI scheme with the
parent's tables shipped over at bootstrap — plus its own
:class:`~repro.engine.ExecutionEngine` per replica (and therefore its own
:class:`~repro.engine.cache.EngineCache`). Consistent-hash routing
in the parent means the same request key always lands on the same worker,
so those private caches get the affinity a shared in-process cache would.

Requests cross the process boundary in wire form — the PR 4 codec's
``RecommendationRequest.to_dict()`` — and the worker re-runs the exact
resolution the router ran (same request, same base config), which is what
makes cluster results bit-identical to single-process ones. Each
finished result rides its reply as one pickled blob
(:func:`encode_result`), which the waiting router thread unpickles
(:func:`decode_result`); every result field crosses by construction.
Workers cache no results — the router's LRU is the one result cache.

The message protocol (dicts over a ``multiprocessing`` queue inbound and
a private per-worker ``Pipe`` outbound — private so one SIGKILLed worker
can only tear its own reply stream, never a shared channel's framing):

=================  =====================================================
parent -> worker   ``request`` (execute + reply), ``register_table``
                   (replica data update), ``ping``, ``stats``,
                   ``shutdown``
worker -> parent   ``result`` (with ``payload`` | ``error``), ``ack``,
                   ``stats``, ``bye``
=================  =====================================================

Every reply carries the request ``id`` and the worker's id; the parent's
router thread correlates them. Worker-side exceptions never kill the
loop — they are encoded (type + message, plus the API error's wire dict
when available) and re-raised parent-side for the waiting future.
"""

from __future__ import annotations

import os
import pickle
import queue
import signal
from dataclasses import dataclass

from repro.api.errors import ApiError
from repro.api.request import RecommendationRequest
from repro.core.result import RecommendationResult
from repro.db.table import Table
from repro.engine.engine import ExecutionEngine, resolve_request
from repro.testing.faults import fault_point
from repro.util.deadline import CancelToken, Deadline
from repro.util.errors import QueryError


@dataclass
class BackendBootstrap:
    """Everything a worker needs to rebuild one backend as a replica.

    ``scheme`` is the pathless backend URI scheme (``memory`` / ``sqlite``
    / ``duckdb``): replicas always use private storage — a worker pointed
    at the parent's database *file* would fight it (and its sibling
    workers) for locks, so the data goes over as tables instead.
    """

    name: str
    scheme: str
    tables: "list[Table]"


def encode_result(result: RecommendationResult) -> bytes:
    """A finished result's wire form for the reply pipe."""
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(blob: bytes) -> RecommendationResult:
    """The result :func:`encode_result` encoded (router side)."""
    return pickle.loads(blob)


def encode_error(exc: BaseException) -> dict:
    """An exception's wire form for the response queue."""
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ApiError):
        payload["api"] = exc.to_dict()
    return payload


def decode_error(payload: dict) -> Exception:
    """Rebuild a worker-side failure as a raisable parent-side error."""
    api = payload.get("api")
    if api is not None:
        return ApiError(
            api.get("message", "worker error"),
            code=api.get("code", "invalid_request"),
            field=api.get("field"),
        )
    exc_type = getattr(
        __import__("repro.util.errors", fromlist=["errors"]),
        payload.get("type", ""),
        None,
    )
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        try:
            return exc_type(payload.get("message", "worker error"))
        except TypeError:
            pass
    return QueryError(
        f"worker execution failed: {payload.get('type', 'Exception')}: "
        f"{payload.get('message', '')}"
    )


class _WorkerSlots:
    """The worker-local replica set, keyed by service backend name."""

    def __init__(self, bootstraps: "list[BackendBootstrap]"):
        from repro.backends.registry import backend_from_uri

        self.engines: dict[str, ExecutionEngine] = {}
        self.backends = {}
        for spec in bootstraps:
            backend = backend_from_uri(spec.scheme)
            for table in spec.tables:
                backend.register_table(table, replace=True)
            self.backends[spec.name] = backend
            self.engines[spec.name] = ExecutionEngine(backend)

    def register_table(self, name: str, table: Table) -> None:
        self.backends[name].register_table(table, replace=True)

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        for backend in self.backends.values():
            backend.close()

    def cache_stats(self) -> dict:
        out = {}
        for name, engine in self.engines.items():
            stats = engine.cache.stats
            out[name] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "invalidations": stats.invalidations,
            }
        return out


def _handle_request(message: dict, slots: _WorkerSlots) -> dict:
    """Execute one request; returns the transport fields of the reply."""
    request = RecommendationRequest.from_dict(message["request"])
    resolved = resolve_request(request, message["config"])
    engine = slots.engines.get(message["backend"])
    if engine is None:
        raise ApiError(
            f"worker has no backend named {message['backend']!r}",
            code="unknown_backend",
            field="backend",
        )
    # The router ships the *remaining* deadline budget (queue wait and
    # transit already spent some); the worker enforces it exactly like the
    # in-process tier — cooperative checks at phase and query boundaries,
    # surfacing DeadlineExceeded through the error reply.
    deadline_ms = message.get("deadline_ms")
    token = (
        CancelToken(deadline=Deadline.from_ms(deadline_ms))
        if deadline_ms is not None
        else None
    )
    result = engine.recommend(resolved, cancel_token=token).to_result()
    return {"payload": encode_result(result)}


def _send(outbox, message: dict) -> None:
    """Send on the worker's private reply pipe; tolerate a dead parent.

    The parent holds the only read end — if it crashed, ``send`` raises
    and there is nobody left to report to, so the error is swallowed and
    the idle-heartbeat reparenting check ends the loop shortly after.
    """
    try:
        outbox.send(message)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


def worker_main(
    worker_id: str,
    bootstraps: "list[BackendBootstrap]",
    inbox,
    outbox,
    idle_poll_s: float,
) -> None:
    """Entry point of one worker process: serve the inbox until shutdown.

    ``idle_poll_s`` is how often an idle worker wakes to check whether it
    has been reparented (the ring's ``ClusterTimeouts.worker_idle_poll_s``).
    """
    # The parent orchestrates shutdown (drain, then an explicit message);
    # a terminal Ctrl-C must not tear workers out from under in-flight
    # requests before the parent has drained them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    counters = {"executed": 0, "errors": 0, "tables_registered": 0}
    try:
        slots = _WorkerSlots(bootstraps)
    except BaseException as exc:  # noqa: BLE001 - reported, not raised
        _send(outbox, {"op": "bye", "worker": worker_id, "error": encode_error(exc)})
        return
    _send(outbox, {"op": "up", "worker": worker_id})
    parent = os.getppid()
    try:
        # seedb-lint: disable=cancellation -- exits via the shutdown op and the reparent heartbeat below; requests carry their own deadlines
        while True:
            try:
                message = inbox.get(timeout=idle_poll_s)
            except queue.Empty:
                # Idle heartbeat: if the parent died without draining us
                # (SIGKILL, crash before _shutdown_workers) we have been
                # reparented — exit instead of holding the inbox (and any
                # inherited pipes) open forever as an orphan.
                if os.getppid() != parent:
                    break
                continue
            op = message.get("op")
            if op == "shutdown":
                break
            reply = {
                "op": "result" if op == "request" else "ack",
                "id": message.get("id"),
                "worker": worker_id,
            }
            try:
                if op == "request":
                    # Chaos hook: lets the fault harness stall or kill the
                    # worker between dequeue and execution (the window the
                    # monitor's reassign logic exists for).
                    fault_point("worker.request")
                    reply.update(_handle_request(message, slots))
                    counters["executed"] += 1
                elif op == "register_table":
                    slots.register_table(message["backend"], message["table"])
                    counters["tables_registered"] += 1
                elif op == "stats":
                    reply["op"] = "stats"
                    reply["stats"] = {
                        **counters,
                        "engine_cache": slots.cache_stats(),
                    }
                elif op == "ping":
                    pass  # the ack itself is the liveness signal
                else:
                    raise QueryError(f"unknown worker op {op!r}")
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                counters["errors"] += 1
                reply["error"] = encode_error(exc)
            _send(outbox, reply)
    finally:
        slots.close()
        _send(outbox, {"op": "bye", "worker": worker_id, "counters": counters})
