"""SeeDBService: one warm engine stack serving many concurrent sessions.

SeeDB is middleware analysts query *repeatedly* (§3.2), and the paper's
framing — "SEEDB is designed as a layer on top of a database system" —
implies a long-lived process answering many overlapping requests, not a
per-script library object. This module is that process core:

* it owns named backends and one :class:`ExecutionEngine` per backend
  (each sharing the backend-wide :class:`~repro.engine.cache.EngineCache`
  and the process-wide worker pool);
* it takes one input — ``submit`` / ``recommend`` / ``recommend_stream``
  are each ``(request, backend=None)`` over a
  :class:`~repro.api.RecommendationRequest`, routed by the explicit
  argument, else the request's own ``backend`` field, else
  :data:`DEFAULT_BACKEND` — and schedules it on a bounded request pool, so
  a burst of sessions queues instead of spawning unbounded threads;
* it *coalesces* identical in-flight requests — same backend, query,
  configuration, and k → one execution whose result fans out to every
  waiter — and keeps a small LRU of finished results keyed on the
  backend's ``data_version`` (a data change silently retires every stale
  entry: the version in the key can never match again);
* it exposes exact service statistics (in-flight, coalesced, cache hit
  rates) for the frontend's ``/stats`` endpoint.

There is one request lifecycle — key → cache probe → coalesce → admit →
schedule → settle → release — written once in ``_launch`` / ``_run`` /
``_settle`` and shared by blocking requests (a ``Future`` sink) and
streams (a ``_StreamBroadcast`` sink). *Where* an admitted blocking job
executes is the only pluggable part: in-process on the backend's engine
by default, or on a worker process when a
:class:`~repro.service.cluster.WorkerRing` is attached (``ring=``).
Either way the run is the engine's
:meth:`~repro.engine.ExecutionEngine.recommend` (streams:
:meth:`~repro.engine.ExecutionEngine.recommend_iter`) over the resolved
request, and the finished result lands in this class's LRU, the one result
cache of both tiers.

Both the HTTP frontend (:mod:`repro.frontend.server`) and interactive
:class:`~repro.frontend.session.AnalystSession` objects route through one
service instance, which is what lets interactive and HTTP traffic share
caches, samples, and access-log history.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.errors import ApiError
from repro.api.progressive import PartialResult
from repro.api.request import RecommendationRequest, ResolvedRequest, require_request
from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.core.result import RecommendationResult
from repro.db.table import Table
from repro.engine.engine import ExecutionEngine, resolve_request
from repro.util.deadline import CancelToken, Deadline
from repro.util.errors import (
    Cancelled,
    ConfigError,
    DeadlineExceeded,
    Overloaded,
    QueryError,
)

if TYPE_CHECKING:
    from repro.service.cluster import WorkerRing

#: Name under which a single-backend service registers its backend.
DEFAULT_BACKEND = "default"


@dataclass
class ServiceStats:
    """Request accounting, kept exact by the service lock."""

    #: Requests accepted (coalesced and cache-served ones included).
    requests: int = 0
    #: Requests that scheduled a full pipeline execution. Steady-state
    #: invariant: requests == executions + coalesced + result_cache_hits.
    executions: int = 0
    #: Executions finished successfully.
    completed: int = 0
    #: Executions that raised (every waiter sees the exception).
    failed: int = 0
    #: Requests attached to an identical in-flight execution.
    coalesced: int = 0
    #: Requests served directly from the finished-result LRU.
    result_cache_hits: int = 0
    #: Streaming requests accepted (counted in ``requests`` too).
    streams: int = 0
    #: Requests shed by admission control (never scheduled).
    rejected: int = 0
    #: Executions that failed with :class:`DeadlineExceeded`.
    deadline_exceeded: int = 0
    #: Executions aborted by explicit cancellation (client disconnects).
    cancelled: int = 0
    #: Executions that finished with a ``partial=True`` result.
    partial_results: int = 0


@dataclass
class _BackendSlot:
    """Everything the service holds per registered backend."""

    backend: Backend
    config: SeeDBConfig
    engine: ExecutionEngine
    owned: bool


class _StreamBroadcast:
    """One progressive execution fanned out to any number of subscribers.

    The producer thread publishes :class:`~repro.api.PartialResult` rounds
    as they are computed; every subscriber — including one attaching after
    rounds already streamed (request coalescing) — replays the full round
    history from the start, so late joiners see the same monotonic
    sequence early ones did. A failed execution re-raises the producer's
    exception in every subscriber.
    """

    def __init__(self, cancel_token: "CancelToken | None" = None) -> None:
        self._cond = threading.Condition()
        self._rounds: list[PartialResult] = []
        self._done = False
        self._error: "BaseException | None" = None
        self._cancel_token = cancel_token
        self._subscribers = 0
        self._ever_subscribed = False

    def publish(self, item: PartialResult) -> None:
        with self._cond:
            self._rounds.append(item)
            self._cond.notify_all()

    # ``Future``'s settle surface, so one ``_settle`` resolves either sink.

    def set_result(self, result: "RecommendationResult | None") -> None:
        """End the stream; its final round already carried ``result``."""
        self._finish(None)

    def set_exception(self, error: BaseException) -> None:
        self._finish(error)

    def _finish(self, error: "BaseException | None") -> None:
        with self._cond:
            self._done = True
            self._error = error
            self._cond.notify_all()

    def subscribe(self):
        """Yield every round from the beginning; blocks on the producer.

        Teardown-aware: when the *last* subscriber disconnects mid-stream
        (generator closed before exhaustion) the broadcast cancels the
        producing execution — nobody is listening, so finishing the
        remaining rounds would only burn backend time. Other subscribers
        are untouched: the refcount only triggers at zero.

        Registration is eager (here, not at the generator's first
        ``next()``): a coalesced joiner must be counted the moment it gets
        the broadcast, or an earlier subscriber disconnecting in the
        window before the joiner's first read would cancel an execution
        that still has an audience.
        """
        with self._cond:
            self._subscribers += 1
            self._ever_subscribed = True
        return self._replay()

    def _replay(self):
        index = 0
        try:
            while True:
                with self._cond:
                    while index >= len(self._rounds) and not self._done:
                        self._cond.wait()
                    if index < len(self._rounds):
                        item = self._rounds[index]
                        index += 1
                    else:
                        if self._error is not None:
                            raise self._error
                        return
                yield item
        finally:
            with self._cond:
                self._subscribers -= 1
                abandoned = self._subscribers == 0 and not self._done
            if abandoned and self._cancel_token is not None:
                self._cancel_token.cancel("every stream subscriber disconnected")


@dataclass
class Job:
    """One admitted execution, from schedule to settle.

    The same record is what runs in-process and what a
    :class:`~repro.service.cluster.WorkerRing` ships to a worker: the ring
    re-resolves ``request`` against ``slot.config`` on the other side (the
    request crosses the process boundary through the wire codec, never by
    pickling resolved internals) and routes by ``key``.
    """

    key: tuple
    backend: str
    slot: _BackendSlot
    request: RecommendationRequest
    resolved: ResolvedRequest
    #: Deadline measured from *admission* — queue wait burns budget,
    #: exactly like the paper's interactive latency bound intends.
    token: CancelToken
    #: Where the outcome goes: every coalesced waiter shares it.
    sink: "Future | _StreamBroadcast"

    @property
    def stream(self) -> bool:
        return isinstance(self.sink, _StreamBroadcast)


class SeeDBService:
    """A thread-safe recommendation service over one or more backends.

    ``max_workers`` bounds concurrent request *executions* (the engines
    underneath additionally bound per-plan DBMS parallelism through the
    process-wide worker pool). ``coalesce_requests=False`` turns identical
    concurrent requests back into independent executions (the equivalence
    tests exercise both). ``result_cache_size=0`` disables the finished
    result LRU.

    Admission control: ``max_queue_depth`` bounds how many admitted
    executions may *wait* behind the ``max_workers`` running ones — when
    the bound is hit new work is shed with :class:`Overloaded` (HTTP 429
    + ``Retry-After``) instead of growing an unbounded backlog.
    ``backend_inflight_limit`` additionally caps concurrent executions per
    backend, so one slow backend cannot monopolize the pool. Both default
    to ``None`` (unbounded, the pre-hardening behavior). Cache hits and
    coalesced joiners are never shed — they cost no execution slot.

    ``ring`` attaches a :class:`~repro.service.cluster.WorkerRing`:
    admitted blocking jobs then execute on its worker processes instead
    of in-process (streams always run here). The service owns the ring's
    lifecycle from then on — :meth:`start`, :meth:`update_table` and
    :meth:`close` reach it; nothing else differs between the tiers.
    """

    def __init__(
        self,
        max_workers: int = 8,
        coalesce_requests: bool = True,
        result_cache_size: int = 256,
        max_queue_depth: "int | None" = None,
        backend_inflight_limit: "int | None" = None,
        ring: "WorkerRing | None" = None,
    ):
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if result_cache_size < 0:
            raise ConfigError(
                f"result_cache_size must be >= 0, got {result_cache_size}"
            )
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ConfigError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if backend_inflight_limit is not None and backend_inflight_limit < 1:
            raise ConfigError(
                f"backend_inflight_limit must be >= 1, got {backend_inflight_limit}"
            )
        self.max_workers = max_workers
        self.coalesce_requests = coalesce_requests
        self.result_cache_size = result_cache_size
        self.max_queue_depth = max_queue_depth
        self.backend_inflight_limit = backend_inflight_limit
        self.stats = ServiceStats()
        self._ring = ring
        self._lock = threading.RLock()
        self._slots: dict[str, _BackendSlot] = {}  # guarded-by: _lock
        #: Executions scheduled and not yet settled, by request key:
        #: the sink identical requests coalesce onto.
        self._in_flight: "dict[tuple, Future | _StreamBroadcast]" = {}  # guarded-by: _lock
        self._results: "OrderedDict[tuple, RecommendationResult]" = OrderedDict()  # guarded-by: _lock
        #: Executions admitted and not yet finished (queued + running).
        self._executing = 0  # guarded-by: _lock
        self._backend_executing: dict[str, int] = {}  # guarded-by: _lock
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="seedb-service"
        )
        self._closed = False  # guarded-by: _lock

    # -- backend registry -------------------------------------------------

    def register_backend(
        self,
        name: str,
        backend: Backend,
        config: "SeeDBConfig | None" = None,
        owned: bool = False,
    ) -> None:
        """Serve ``backend`` under ``name`` with a per-backend default config.

        ``owned=True`` hands the backend's lifecycle to the service:
        :meth:`close` will call its ``close()`` (connection cleanup) after
        the engines shut down.
        """
        with self._lock:
            self._require_open()
            if name in self._slots:
                raise ConfigError(f"backend {name!r} already registered")
            if self._ring is not None and self._ring.started:
                raise ConfigError(
                    "cannot register backends after the worker ring started; "
                    "construct the service fully, then start()"
                )
            self._slots[name] = _BackendSlot(
                backend=backend,
                config=config if config is not None else SeeDBConfig(),
                engine=ExecutionEngine(backend),
                owned=owned,
            )

    def register_backend_uri(
        self,
        name: str,
        uri: str,
        config: "SeeDBConfig | None" = None,
    ) -> Backend:
        """Construct a backend from a URI and register it service-owned.

        ``uri`` is anything :func:`repro.backends.backend_from_uri`
        accepts — ``memory``, ``sqlite:///analytics.db``,
        ``duckdb:///file.db`` — and the service takes lifecycle ownership
        (its ``close()`` will close the backend's connections/files).
        """
        from repro.backends.registry import backend_from_uri

        backend = backend_from_uri(uri)
        try:
            self.register_backend(name, backend, config=config, owned=True)
        except Exception:
            backend.close()
            raise
        return backend

    def backend(self, name: str = DEFAULT_BACKEND) -> Backend:
        return self._slot(name).backend

    def config(self, name: str = DEFAULT_BACKEND) -> SeeDBConfig:
        """The base config requests to one backend resolve against."""
        return self._slot(name).config

    def engine(self, name: str = DEFAULT_BACKEND) -> ExecutionEngine:
        """The :class:`ExecutionEngine` serving one backend.

        Interactive sessions use this to share the service's caches and
        access log for non-request work such as schema lookups.
        """
        return self._slot(name).engine

    def _slot(self, name: str) -> _BackendSlot:
        with self._lock:
            return self._require_slot(name)

    def update_table(
        self,
        table: Table,
        backend: str = DEFAULT_BACKEND,
        replace: bool = True,
    ) -> None:
        """Publish new table data to the authoritative backend and, with a
        worker ring attached, to every worker replica.

        Holding the service lock across the replication serializes the
        update against new submissions: requests keyed at the old
        ``data_version`` were dispatched (FIFO inboxes) before the
        replicas swap, requests keyed at the new version can only be
        canonicalized after every replica acked — so no result is ever
        cached under a version its data didn't match.
        """
        with self._lock:
            self._require_open()
            self._require_slot(backend).backend.register_table(
                table, replace=replace
            )
            if self._ring is not None:
                self._ring.replicate_table(backend, table)

    # -- admission control -------------------------------------------------

    def _admit_execution(self, backend_name: str) -> None:
        """Load-shedding gate for one new execution (caller holds the lock).

        Raises :class:`Overloaded` when the admission queue or the
        backend's in-flight cap is full; otherwise claims a slot (paired
        with :meth:`_release_execution`).
        """
        if (
            self.max_queue_depth is not None
            and self._executing >= self.max_workers + self.max_queue_depth
        ):
            self.stats.rejected += 1
            raise Overloaded(
                f"admission queue full ({self._executing} executions in flight, "
                f"{self.max_workers} workers + {self.max_queue_depth} queue slots)",
                retry_after=self._retry_after(),
            )
        limit = self.backend_inflight_limit
        if (
            limit is not None
            and self._backend_executing.get(backend_name, 0) >= limit
        ):
            self.stats.rejected += 1
            raise Overloaded(
                f"backend {backend_name!r} is at its in-flight cap ({limit})",
                retry_after=self._retry_after(),
            )
        self._executing += 1
        self._backend_executing[backend_name] = (
            self._backend_executing.get(backend_name, 0) + 1
        )

    def _retry_after(self) -> float:
        """Crude drain estimate: half a second per queued execution per
        worker, floored at 100 ms — a hint, not a promise.

        Caller holds the lock.
        """
        queued = max(0, self._executing - self.max_workers)
        return max(0.1, round(0.5 * (queued + 1) / self.max_workers, 2))

    def _release_execution(self, backend_name: str) -> None:
        """Return an admission slot (caller holds the lock)."""
        self._executing = max(0, self._executing - 1)
        remaining = self._backend_executing.get(backend_name, 0) - 1
        if remaining <= 0:
            self._backend_executing.pop(backend_name, None)
        else:
            self._backend_executing[backend_name] = remaining

    # -- serving -----------------------------------------------------------

    def submit(
        self, request: RecommendationRequest, backend: "str | None" = None
    ) -> "Future[RecommendationResult]":
        """Schedule a recommendation; returns a future for its result.

        The request runs on ``backend`` if given, else on the request's
        own ``backend`` field, else on :data:`DEFAULT_BACKEND`. Identical
        concurrent requests (same backend, resolved request identity)
        share one execution when coalescing is enabled; requests matching
        a finished result at the same ``data_version`` resolve immediately
        from the LRU.
        """
        return self._launch(request, backend, stream=False)

    def recommend(
        self, request: RecommendationRequest, backend: "str | None" = None
    ) -> RecommendationResult:
        """Blocking :meth:`submit` — the call interactive sessions make."""
        return self.submit(request, backend).result()

    def recommend_stream(
        self, request: RecommendationRequest, backend: "str | None" = None
    ):
        """Progressive :meth:`recommend`: an iterator of
        :class:`~repro.api.PartialResult` rounds ending in the final
        result round.

        Coalescing-aware fan-out: identical concurrent stream requests
        share one incremental execution whose rounds broadcast to every
        subscriber (late joiners replay from round one); with coalescing
        off each request runs its own execution.
        """
        return self._launch(request, backend, stream=True).subscribe()

    def _launch(
        self,
        request: RecommendationRequest,
        backend: "str | None",
        stream: bool,
    ) -> "Future[RecommendationResult] | _StreamBroadcast":
        """Key, probe the LRU, coalesce, admit and schedule one request;
        returns the sink its outcome will land in."""
        with self._lock:
            self._require_open()
            request = require_request(request)
            # One routing rule: explicit argument, else the request's own
            # backend field, else the default.
            if backend is None:
                backend = (
                    request.backend
                    if request.backend is not None
                    else DEFAULT_BACKEND
                )
            slot = self._require_slot(backend)
            resolved = resolve_request(request, slot.config, stream=stream)
            # A stream must never share an execution (or a cache entry)
            # with a batch request: it gets a key namespace of its own.
            key = (
                (("stream",) if stream else ())
                + (backend, slot.backend.data_version)
                + resolved.key_parts()
            )
            self.stats.requests += 1
            if stream:
                self.stats.streams += 1

            cached = None if stream else self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                self.stats.result_cache_hits += 1
                future: "Future[RecommendationResult]" = Future()
                future.set_result(cached)
                return future

            if self.coalesce_requests:
                in_flight = self._in_flight.get(key)
                if in_flight is not None:
                    self.stats.coalesced += 1
                    return in_flight

            self._admit_execution(backend)
            token = CancelToken(deadline=Deadline.from_ms(resolved.deadline_ms))
            job = Job(
                key, backend, slot, request, resolved, token,
                sink=_StreamBroadcast(cancel_token=token) if stream else Future(),
            )
            # With coalescing off an identical key may already be in
            # flight; keep the first occupant — the map only needs *a*
            # representative for joiners, and each execution resolves its
            # own sink regardless.
            self._in_flight.setdefault(key, job.sink)
            self.stats.executions += 1
        try:
            self._pool.submit(self._run, job)
        except RuntimeError as exc:
            # close() shut the pool down between our lock release and the
            # schedule: resolve the sink (coalesced waiters included)
            # instead of stranding them in result() / mid-stream.
            self._settle(
                job,
                error=QueryError(f"service closed while scheduling request: {exc}"),
            )
        return job.sink

    def _run(self, job: Job) -> None:
        """Execute one admitted job on a request-pool thread, without the
        service lock: streams and ring-less services in-process, blocking
        jobs on the worker ring when one is attached."""
        result = None
        try:
            if job.stream:
                for partial in job.slot.engine.recommend_iter(
                    job.resolved, cancel_token=job.token
                ):
                    job.sink.publish(partial)
                    if partial.is_final:
                        result = partial.result
            elif self._ring is not None:
                if not self._ring.started:
                    self.start()
                result = self._ring.run(job)
            else:
                result = job.slot.engine.recommend(
                    job.resolved, cancel_token=job.token
                ).to_result()
        except BaseException as exc:  # noqa: BLE001 - delivered to waiters
            self._settle(job, error=exc)
        else:
            self._settle(job, result)

    def _settle(
        self,
        job: Job,
        result: "RecommendationResult | None" = None,
        error: "BaseException | None" = None,
    ) -> None:
        """Account for one finished (or never-scheduled) job, release its
        admission slot, then resolve its sink — every waiter sees the
        same result or the same exception."""
        with self._lock:
            if self._in_flight.get(job.key) is job.sink:
                del self._in_flight[job.key]
            if error is not None:
                self.stats.failed += 1
                if isinstance(error, DeadlineExceeded):
                    self.stats.deadline_exceeded += 1
                elif isinstance(error, Cancelled):
                    self.stats.cancelled += 1
            else:
                self.stats.completed += 1
                if result is not None and result.partial:
                    # Degraded results are deadline accidents, not the
                    # request's true answer — caching one would serve a
                    # degraded result to a future caller with a fresh
                    # budget.
                    self.stats.partial_results += 1
                elif self.result_cache_size and not job.stream:
                    self._results[job.key] = result
                    self._results.move_to_end(job.key)
                    while len(self._results) > self.result_cache_size:
                        self._results.popitem(last=False)
            self._release_execution(job.backend)
        if error is not None:
            job.sink.set_exception(error)
        else:
            job.sink.set_result(result)

    def _require_slot(self, backend: str) -> _BackendSlot:
        """Look up a registered backend slot. Caller holds the lock."""
        slot = self._slots.get(backend)
        if slot is None:
            raise ApiError(
                f"no backend named {backend!r}; "
                f"registered: {sorted(self._slots)}",
                code="unknown_backend",
                field="backend",
            )
        return slot

    # -- observability -----------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready view of service, engine-cache, and backend stats
        (plus the worker ring's, under ``cluster``, when one is attached)."""
        with self._lock:
            backends = {}
            for name, slot in self._slots.items():
                engine_cache = slot.engine.cache
                cache_stats = engine_cache.stats
                hits, misses = cache_stats.hits, cache_stats.misses
                total = hits + misses
                backends[name] = {
                    "backend": slot.backend.name,
                    "data_version": slot.backend.data_version,
                    "queries_executed": slot.backend.queries_executed,
                    "metadata_queries_executed": (
                        slot.backend.metadata_queries_executed
                    ),
                    "engine_cache": {
                        "hits": hits,
                        "misses": misses,
                        "hit_rate": (hits / total) if total else None,
                        "invalidations": cache_stats.invalidations,
                        "samples_dropped": cache_stats.samples_dropped,
                    },
                }
            snap = {
                "requests": self.stats.requests,
                "executions": self.stats.executions,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "coalesced": self.stats.coalesced,
                "result_cache_hits": self.stats.result_cache_hits,
                "streams": self.stats.streams,
                "rejected": self.stats.rejected,
                "deadline_exceeded": self.stats.deadline_exceeded,
                "cancelled": self.stats.cancelled,
                "partial_results": self.stats.partial_results,
                "in_flight": len(self._in_flight),
                "executing": self._executing,
                "result_cache_entries": len(self._results),
                "coalescing_enabled": self.coalesce_requests,
                "max_workers": self.max_workers,
                "max_queue_depth": self.max_queue_depth,
                "backend_inflight_limit": self.backend_inflight_limit,
                "backends": backends,
            }
        if self._ring is not None:
            snap["cluster"] = self._ring.snapshot()
        return snap

    def health(self) -> dict:
        """Liveness summary for the frontend's ``/healthz`` endpoint.

        The thread tier is alive iff the process is; an attached worker
        ring adds per-worker liveness probes and may degrade the status.
        """
        with self._lock:
            health = {
                "status": "closed" if self._closed else "ok",
                "mode": "threads",
                "backends": sorted(self._slots),
                "workers": [],
            }
        if self._ring is not None:
            ring = self._ring.health()
            if health["status"] == "closed":
                ring["status"] = "closed"
            health.update(ring)
        return health

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._in_flight)

    def clear_result_cache(self) -> None:
        with self._lock:
            self._results.clear()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SeeDBService":
        """Spawn the attached worker ring's processes (idempotent; a no-op
        without a ring).

        Call this before starting server threads when the ring's start
        method is ``fork`` (``seedb serve`` does); otherwise the first
        request starts it lazily. Replicas are built under the service
        lock, so they match the ``data_version`` requests are keyed at.
        """
        with self._lock:
            self._require_open()
            if self._ring is not None:
                self._ring.start(self._slots)
        return self

    def close(self) -> None:
        """Drain the request pool, stop the worker ring, close engines,
        release owned backends."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slots = list(self._slots.values())
        # Drain first: the ring keeps serving (and healing crashes) until
        # every in-flight job has settled.
        self._pool.shutdown(wait=True)
        if self._ring is not None:
            self._ring.close()
        for slot in slots:
            slot.engine.close()
        for slot in slots:
            if slot.owned:
                close = getattr(slot.backend, "close", None)
                if close is not None:
                    close()
        with self._lock:
            self._in_flight.clear()
            self._results.clear()

    def _require_open(self) -> None:
        """Reject calls on a closed service. Caller holds the lock."""
        if self._closed:
            raise QueryError("service is closed")

    def __enter__(self) -> "SeeDBService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def single_backend_service(
    backend: Backend,
    config: "SeeDBConfig | None" = None,
    owned: bool = False,
    **service_kwargs,
) -> SeeDBService:
    """A service wrapping one backend under the default name."""
    service = SeeDBService(**service_kwargs)
    service.register_backend(DEFAULT_BACKEND, backend, config=config, owned=owned)
    return service
