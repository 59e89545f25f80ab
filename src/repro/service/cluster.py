"""WorkerRing: the multi-process sharded execution tier.

:class:`~repro.service.service.SeeDBService` serves many sessions from
one process of threads — which the GIL caps at roughly one core for the
in-process memory backend. A :class:`WorkerRing` scales the *execution*
of admitted jobs past that: a pool of long-lived worker processes, each
owning private backend replicas and engine caches, that the service hands
one deduplicated :class:`~repro.service.service.Job` at a time.

The ring is a collaborator, not a service: it owns spawn, route, monitor,
dispatch, reassign, broadcast and shutdown behind its own lock and its
own closed flag, holds no reference to the service, and is driven through
a narrow surface — :meth:`~WorkerRing.start`, :meth:`~WorkerRing.run`
(one job), :meth:`~WorkerRing.replicate_table`,
:meth:`~WorkerRing.health` / :meth:`~WorkerRing.snapshot`, and
:meth:`~WorkerRing.close`. Canonicalisation, admission, coalescing, the
result LRU and stats all stay in the one service class, so they behave
identically in both tiers:

* **Coalescing and bit-identity survive sharding.** Identical concurrent
  requests collapse onto one in-flight sink in the service *before* the
  ring sees a job. The one execution is routed by consistent hash on the
  key digest (:mod:`repro.service.hashring`), so repeat traffic for a key
  always lands on the worker whose
  :class:`~repro.engine.cache.EngineCache` is warm for it. The worker
  re-resolves the wire-form request against the same base config the
  router resolved it against — same inputs, same pipeline, bit-identical
  results.
* **Results cross processes without pickle, and are cached once.** A
  worker writes each finished result into a shared-memory segment named
  for that one reply (:mod:`repro.service.shm`); only the name rides the
  reply pipe, and the router decodes and unlinks the segment at once
  (encoded bytes ride in-band when shared memory is unavailable or the
  write tore). The decoded result then lands in the service's LRU — the
  router is the only reader there ever was, so that is the one result
  cache.
* **Crashes are contained.** A monitor thread watches process sentinels;
  a dead worker is respawned from the current authoritative bootstrap,
  and its in-flight requests are retried once on the next ring node.
  Requests that outlive two workers fail with a clear error.

:class:`ClusterService` is only a constructor: a ``SeeDBService`` with a
ring attached. ``ClusterService(workers=1)`` is a single shard behind the
same interface, and plain ``SeeDBService`` remains the no-process tier —
``seedb serve`` picks between them with ``--workers``.

Streams (``recommend_stream``) deliberately execute on the router process
whether or not a ring is attached: progressive rounds are latency-bound,
not throughput-bound, and fanning partial rounds through shared memory
would buy nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import random
import threading
import time
import uuid
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from multiprocessing import connection as mp_connection

from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.core.result import RecommendationResult
from repro.db.table import Table
from repro.service.hashring import HashRing
from repro.service.service import DEFAULT_BACKEND, Job, SeeDBService, _BackendSlot
from repro.service.shm import (
    decode_result,
    read_segment,
    unlink_prefix,
    validate_prefix,
)
from repro.service.worker import BackendBootstrap, decode_error, worker_main
from repro.util.deadline import CancelToken
from repro.util.errors import ConfigError, DeadlineExceeded, QueryError, WorkerLost

#: How many times one request may be assigned to a worker before failing
#: (1 initial dispatch + 1 retry on a different shard).
MAX_ATTEMPTS = 2

#: Respawns allowed per worker slot before it is declared failed and
#: removed from the ring (a crash-looping replica must not flap forever).
MAX_RESPAWNS = 5


@dataclass
class ClusterTimeouts:
    """Every cluster-tier timeout, named in one place (seconds).

    Production code runs on the defaults; the chaos suite shortens the
    teardown ladder by passing ``timeouts=ClusterTimeouts(...)``.
    """

    #: close(): how long to wait for the router / monitor threads.
    router_join_s: float = 10.0
    monitor_join_s: float = 10.0
    #: Shutdown escalation: graceful join, then terminate, then kill.
    worker_join_s: float = 10.0
    worker_terminate_s: float = 5.0
    worker_kill_s: float = 5.0
    #: Reaping a worker the monitor already declared dead.
    dead_worker_join_s: float = 1.0
    #: update_table() replica broadcast (ships whole tables; generous).
    table_broadcast_s: float = 120.0
    #: snapshot() per-worker stats gather.
    stats_broadcast_s: float = 2.0
    #: Extra wall-clock past a request deadline before the router stops
    #: waiting on a worker reply (covers reply-pipe transit + decode).
    dispatch_grace_s: float = 2.0
    #: Base delay before re-dispatching an orphaned request to the next
    #: ring node (jittered; bounds the retry stampede after a crash).
    retry_backoff_s: float = 0.05
    #: Worker inbox poll: how often an idle worker wakes to check whether
    #: it has been reparented (parent died without draining it).
    worker_idle_poll_s: float = 5.0


def key_digest(key: tuple) -> str:
    """Stable digest of a request key: what the hash ring routes on."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def default_start_method() -> str:
    """``fork`` where available (fast, inherits nothing mutable the worker
    uses); ``spawn`` elsewhere — the worker entry point is importable and
    its arguments picklable, so both work."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _Dispatch:
    """One in-flight message awaiting a worker reply."""

    __slots__ = (
        "id", "message", "digest", "worker", "attempts", "event", "reply",
        "expires_at",
    )

    def __init__(self, message: dict, digest: "str | None"):
        self.id = -1
        self.message = message
        self.digest = digest
        self.worker = ""
        self.attempts = 0
        self.event = threading.Event()
        self.reply: "dict | None" = None
        #: Monotonic instant the request's deadline lands (None = no
        #: deadline): the retry budget the monitor consults on reassign.
        self.expires_at: "float | None" = None

    def resolve(self, reply: dict) -> None:
        self.reply = reply
        self.event.set()

    def fail(self, error_type: str, message: str) -> None:
        """Resolve with an error reply the waiter re-raises by type name."""
        self.resolve({"error": {"type": error_type, "message": message}})


class _WorkerHandle:
    """Router-side state of one worker slot (stable id, live process).

    ``outbox`` is the read end of this worker's private reply pipe. Replies
    deliberately do NOT share one queue across workers: a SIGKILL landing
    mid-``send`` leaves a torn message in the stream, and on a shared
    channel that skews the framing for every worker's replies forever. On
    a private pipe the tear is contained — the parent holds no write end,
    so the dead writer is the only writer, the router's blocked ``recv``
    sees EOF, and only dispatches the monitor reassigns anyway are lost.
    """

    __slots__ = (
        "id", "process", "inbox", "outbox", "generation", "booted", "respawns"
    )

    def __init__(self, worker_id, process, inbox, outbox, generation):
        self.id = worker_id
        self.process = process
        self.inbox = inbox
        self.outbox = outbox
        self.generation = generation
        self.booted = False
        self.respawns = 0


def _bootstrap_of(name: str, slot: _BackendSlot) -> BackendBootstrap:
    from repro.backends.registry import available_backend_schemes

    scheme = slot.backend.name
    if scheme not in available_backend_schemes():
        raise ConfigError(
            f"backend {name!r} ({scheme!r}) has no URI scheme to build "
            "worker replicas from; the cluster tier needs "
            "backend_from_uri-constructible backends"
        )
    tables = [
        slot.backend.fetch_table(table_name)
        for table_name in slot.backend.table_names()
    ]
    return BackendBootstrap(name=name, scheme=scheme, tables=tables)


class WorkerRing:
    """A consistent-hash ring of worker processes that execute jobs.

    ``workers`` is the number of worker processes (the unit of CPU
    scale-out). Replicas are built at :meth:`start` from each backend's
    URI scheme with its tables shipped over, so every worker owns private
    storage (no cross-process file locking).

    ``start()`` must run before other threads are active if the platform
    forks (``seedb serve`` starts the ring before the HTTP server).

    Lock order: the ring's lock is *inner* to the service lock of whoever
    drives it — the service may call in while holding its own lock, and
    the ring never calls back out.
    """

    def __init__(
        self,
        workers: int = 2,
        ring_replicas: int = 64,
        shm_prefix: "str | None" = None,
        start_method: "str | None" = None,
        timeouts: "ClusterTimeouts | None" = None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.n_workers = workers
        self.timeouts = timeouts or ClusterTimeouts()
        self._ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        #: Every reply segment a worker writes is named under this prefix,
        #: so close() can sweep what a killed worker never announced.
        self.shm_prefix = validate_prefix(
            shm_prefix or f"sdb{uuid.uuid4().hex[:8]}."
        )
        self._hash = HashRing(replicas=ring_replicas)
        self._lock = threading.RLock()
        self._handles: "dict[str, _WorkerHandle]" = {}  # guarded-by: _lock
        self._pending: "dict[int, _Dispatch]" = {}  # guarded-by: _lock
        self._ids = itertools.count(1)
        self._bootstraps: "dict[str, BackendBootstrap]" = {}  # guarded-by: _lock
        self._started = False  # guarded-by: _lock
        #: The closed flag: set once by close(), polled by the threads.
        self._closing = threading.Event()
        self._router_thread: "threading.Thread | None" = None
        self._monitor_thread: "threading.Thread | None" = None
        self.respawns = 0  # guarded-by: _lock
        self.retries = 0  # guarded-by: _lock
        self.ejections = 0  # guarded-by: _lock

    # -- lifecycle ---------------------------------------------------------

    @property
    def started(self) -> bool:
        with self._lock:
            return self._started

    def start(self, slots: "dict[str, _BackendSlot]") -> None:
        """Spawn the worker pool with a replica of every backend in
        ``slots`` (idempotent: later calls change nothing)."""
        with self._lock:
            if self._closing.is_set():
                raise QueryError("worker ring is closed")
            if self._started:
                return
            if not slots:
                raise ConfigError(
                    "register at least one backend before starting the cluster"
                )
            self._bootstraps = {
                name: _bootstrap_of(name, slot) for name, slot in slots.items()
            }
            for index in range(self.n_workers):
                worker_id = f"w{index}"
                self._handles[worker_id] = self._spawn(worker_id, generation=0)
                self._hash.add(worker_id)
            self._router_thread = threading.Thread(
                target=self._route_responses,
                name="seedb-cluster-router",
                daemon=True,
            )
            self._monitor_thread = threading.Thread(
                target=self._monitor,
                name="seedb-cluster-monitor",
                daemon=True,
            )
            self._started = True
            self._router_thread.start()
            self._monitor_thread.start()

    def _spawn(self, worker_id: str, generation: int) -> _WorkerHandle:
        """Fork one worker process. Caller holds the ring lock."""
        inbox = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                list(self._bootstraps.values()),
                self.shm_prefix,
                inbox,
                writer,
                self.timeouts.worker_idle_poll_s,
            ),
            name=f"seedb-{worker_id}",
            daemon=True,
        )
        process.start()
        # Drop the parent's write end immediately: the worker must be the
        # only writer so its death EOFs the pipe (even mid-message).
        writer.close()
        return _WorkerHandle(worker_id, process, inbox, reader, generation)

    def close(self) -> None:
        """Stop workers and threads, fail what is still pending, release
        every segment under the prefix (idempotent).

        The driver drains its own in-flight jobs first; until this runs
        the monitor still covers crashes.
        """
        with self._lock:
            if self._closing.is_set():
                return
            self._closing.set()
            started = self._started
        if started:
            self._shutdown_workers()
            if self._router_thread is not None:
                self._router_thread.join(timeout=self.timeouts.router_join_s)
            if self._monitor_thread is not None:
                self._monitor_thread.join(timeout=self.timeouts.monitor_join_s)
        self._fail_all_pending(QueryError("service closed"))
        # Read segments are already gone (the read unlinks them); this
        # catches what a killed worker wrote and never announced.
        unlink_prefix(self.shm_prefix)

    def _shutdown_workers(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            try:
                handle.inbox.put({"op": "shutdown"})
            except (OSError, ValueError):
                pass
        for handle in handles:
            handle.process.join(timeout=self.timeouts.worker_join_s)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=self.timeouts.worker_terminate_s)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=self.timeouts.worker_kill_s)
            handle.inbox.close()
            try:
                handle.outbox.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # -- dispatch ----------------------------------------------------------

    def run(self, job: Job) -> RecommendationResult:
        """Execute one job on the worker owning its key's shard.

        Blocks the calling thread until the worker replies, the job's
        token is cancelled, or its deadline (plus dispatch grace) lands.
        """
        message = {
            "op": "request",
            "backend": job.backend,
            # The wire codec is the transport: the worker re-resolves this
            # exact request against the same base config, reproducing the
            # resolution the router keyed on.
            "request": dataclass_replace(job.request, k=job.resolved.k).to_dict(),
            "config": job.slot.config,
        }
        remaining_ms = job.token.remaining_ms()
        if remaining_ms is not None:
            # The worker enforces what's left of the budget, not the
            # original deadline_ms: queue wait already consumed some.
            message["deadline_ms"] = max(1.0, remaining_ms)
        reply = self._dispatch(message, key_digest(job.key), job.token)
        if "error" in reply:
            raise decode_error(reply["error"])
        if "shm" in reply:
            try:
                return read_segment(reply["shm"])
            except (FileNotFoundError, OSError, ConfigError) as exc:
                raise QueryError(
                    f"worker result segment {reply['shm']!r} vanished "
                    f"before the router read it: {exc}"
                ) from exc
        # In-band fallback (shared memory unavailable or the write tore):
        # same encoding, shipped as bytes.
        return decode_result(reply["payload"])[2]

    def _dispatch(self, message: dict, digest: str, token: CancelToken) -> dict:
        dispatch = _Dispatch(message, digest)
        remaining = token.remaining()
        if remaining is not None:
            dispatch.expires_at = time.monotonic() + max(0.0, remaining)
        with self._lock:
            if self._closing.is_set():
                raise QueryError("worker ring is closed")
            if not self._hash:
                raise WorkerLost(
                    "no live workers (all worker slots failed); "
                    "restart the service"
                )
            worker_id = self._hash.node_for(digest)
            dispatch.id = next(self._ids)
            dispatch.worker = worker_id
            dispatch.attempts = 1
            self._pending[dispatch.id] = dispatch
            self._handles[worker_id].inbox.put(dict(message, id=dispatch.id))
        # A cancelled request must not keep a router thread parked waiting
        # on a worker that is still (correctly) grinding: the token kicks
        # the event so the waiter can bail with the typed error.
        unregister = token.on_cancel(dispatch.event.set)
        try:
            if dispatch.expires_at is None:
                dispatch.event.wait()
            else:
                # Bounded wait: the worker enforces the deadline itself and
                # normally replies with DeadlineExceeded; the grace covers
                # reply transit. A worker that *hangs* (never replies) is
                # cut off here instead of stranding the request forever.
                dispatch.event.wait(
                    max(0.0, dispatch.expires_at - time.monotonic())
                    + self.timeouts.dispatch_grace_s
                )
        finally:
            unregister()
        if dispatch.reply is None:
            with self._lock:
                self._pending.pop(dispatch.id, None)
            token.check()  # raises Cancelled / DeadlineExceeded
            raise DeadlineExceeded(
                f"worker {dispatch.worker} did not reply within the "
                f"request deadline (+{self.timeouts.dispatch_grace_s}s grace)"
            )
        return dispatch.reply

    def _broadcast(self, message: dict, timeout: float) -> "dict[str, dict | None]":
        """Send ``message`` to every worker; gather replies until timeout."""
        dispatches: "dict[str, _Dispatch]" = {}
        with self._lock:
            for worker_id, handle in self._handles.items():
                dispatch = _Dispatch(dict(message, worker=worker_id), digest=None)
                dispatch.id = next(self._ids)
                dispatch.worker = worker_id
                dispatch.attempts = 1
                self._pending[dispatch.id] = dispatch
                handle.inbox.put(dict(dispatch.message, id=dispatch.id))
                dispatches[worker_id] = dispatch
        deadline = time.monotonic() + timeout
        for dispatch in dispatches.values():
            dispatch.event.wait(max(0.0, deadline - time.monotonic()))
        with self._lock:
            for dispatch in dispatches.values():
                if not dispatch.event.is_set():
                    self._pending.pop(dispatch.id, None)
        return {
            worker_id: dispatch.reply
            for worker_id, dispatch in dispatches.items()
        }

    # -- response routing and crash monitoring -----------------------------

    def _route_responses(self) -> None:
        """Multiplex every worker's private reply pipe onto the pending map.

        A channel that EOFs or tears (its worker was SIGKILLed, possibly
        mid-``send``) is simply retired here — the monitor notices the
        death via the process sentinel and reassigns that worker's pending
        dispatches, so nothing in this loop may block on one worker's
        stream (the shared-queue design this replaces deadlocked exactly
        that way: one torn message skewed the framing for all replies).
        """
        dead: "set" = set()
        while not self._closing.is_set():
            with self._lock:
                conns = [
                    handle.outbox
                    for handle in self._handles.values()
                    if handle.outbox not in dead
                ]
            if not conns:
                self._closing.wait(0.2)
                continue
            try:
                ready = mp_connection.wait(conns, timeout=0.2)
            except OSError:  # pragma: no cover - raced a handle teardown
                continue
            for conn in ready:
                try:
                    reply = conn.recv()
                except Exception:  # noqa: BLE001 - EOF or a torn/corrupt stream
                    dead.add(conn)
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    continue
                op = reply.get("op")
                if op == "up":
                    with self._lock:
                        handle = self._handles.get(reply.get("worker", ""))
                        if handle is not None:
                            handle.booted = True
                    continue
                if op == "bye":
                    continue  # the monitor owns death handling
                with self._lock:
                    dispatch = self._pending.pop(reply.get("id"), None)
                if dispatch is not None:
                    dispatch.resolve(reply)

    def _monitor(self) -> None:
        while not self._closing.is_set():
            with self._lock:
                # No is_alive() filter: a worker that died *between* wait
                # cycles would be filtered out here before its sentinel
                # was ever waited on, and its death would never be
                # handled (pending dispatches stuck forever). A dead but
                # unhandled process's sentinel is ready immediately —
                # exactly the wake-up this loop exists for; handling it
                # removes or replaces the handle, so nothing busy-loops.
                sentinels = {
                    handle.process.sentinel: (worker_id, handle.generation)
                    for worker_id, handle in self._handles.items()
                }
            if not sentinels:
                self._closing.wait(0.2)
                continue
            try:
                dead = mp_connection.wait(list(sentinels), timeout=0.2)
            except OSError:  # pragma: no cover - raced a shutdown
                continue
            for sentinel in dead:
                worker_id, generation = sentinels[sentinel]
                self._on_worker_death(worker_id, generation)

    def _on_worker_death(self, worker_id: str, generation: int) -> None:
        with self._lock:
            if self._closing.is_set():
                return
            handle = self._handles.get(worker_id)
            if (
                handle is None
                or handle.generation != generation
                or handle.process.is_alive()
            ):
                return  # stale event: already respawned
            orphans = [
                dispatch
                for dispatch in self._pending.values()
                if dispatch.worker == worker_id and not dispatch.event.is_set()
            ]
            respawns = handle.respawns + 1
            permanent = (not handle.booted) or respawns > MAX_RESPAWNS
            if permanent:
                # A replica that cannot even boot (or crash-loops) gets its
                # shard redistributed instead of flapping forever. The
                # ejection is permanent for this service's lifetime, so
                # health() reports degraded from here on.
                self.ejections += 1
                self._hash.remove(worker_id)
                del self._handles[worker_id]
            else:
                self.respawns += 1
                replacement = self._spawn(worker_id, generation=generation + 1)
                replacement.respawns = respawns
                self._handles[worker_id] = replacement
            for dispatch in orphans:
                self._reassign(dispatch, dead_worker=worker_id)
        handle.process.join(timeout=self.timeouts.dead_worker_join_s)
        handle.inbox.close()
        # Retire the dead worker's reply pipe. The router tolerates this
        # racing its recv/wait (OSError/EOF land in its dead-channel
        # path); without it every respawn would leak the old reader fd.
        try:
            handle.outbox.close()
        except OSError:  # pragma: no cover - router closed it first
            pass

    def _reassign(self, dispatch: _Dispatch, dead_worker: str) -> None:
        """Retry one orphaned dispatch (caller holds the ring lock).

        Retries are budget-gated: a request whose deadline already landed
        (or will land before a retry could plausibly finish) fails with
        the typed error immediately instead of burning a worker slot on an
        answer nobody is waiting for.
        """
        if dispatch.attempts >= MAX_ATTEMPTS:
            self._pending.pop(dispatch.id, None)
            dispatch.fail(
                "WorkerLost",
                f"request failed on {dispatch.attempts} workers "
                f"(last: {dead_worker} died mid-request)",
            )
            return
        if (
            dispatch.expires_at is not None
            and time.monotonic() >= dispatch.expires_at
        ):
            self._pending.pop(dispatch.id, None)
            dispatch.fail(
                "DeadlineExceeded",
                f"worker {dead_worker} died mid-request and no "
                "deadline budget remains to retry",
            )
            return
        if dispatch.digest is not None:
            # Prefer the first live ring node in failover order that is
            # not the worker that just died — the node that owns (or would
            # inherit) this shard. A single-worker pool falls back to the
            # respawned primary itself.
            order = self._hash.nodes_for(dispatch.digest, max(len(self._hash), 1))
            candidates = [
                node for node in order
                if node in self._handles and node != dead_worker
            ] or [node for node in order if node in self._handles]
        else:
            candidates = [dispatch.worker] if dispatch.worker in self._handles else []
        if not candidates:
            self._pending.pop(dispatch.id, None)
            dispatch.fail("WorkerLost", "no live workers left to retry on")
            return
        target = candidates[0]
        dispatch.attempts += 1
        dispatch.worker = target
        self.retries += 1
        handle = self._handles[target]
        # Jittered backoff (seeded per dispatch, so deterministic under
        # test): after a crash every orphan of the dead worker reassigns
        # at once; spreading the re-sends keeps the successor's inbox from
        # absorbing the whole burst in one scheduling quantum. Capped by
        # the remaining deadline budget — a retry that could only start
        # after expiry goes out immediately and lets the worker reject it.
        jitter = random.Random(dispatch.id).random()
        delay = self.timeouts.retry_backoff_s * dispatch.attempts * (0.5 + jitter)
        if dispatch.expires_at is not None:
            delay = min(delay, max(0.0, dispatch.expires_at - time.monotonic()))

        def _resend() -> None:
            with self._lock:
                if dispatch.event.is_set() or dispatch.id not in self._pending:
                    return
                try:
                    handle.inbox.put(dict(dispatch.message, id=dispatch.id))
                except (OSError, ValueError):  # pragma: no cover - raced close
                    pass

        if delay <= 0:
            _resend()
        else:
            timer = threading.Timer(delay, _resend)
            timer.daemon = True
            timer.start()

    def _fail_all_pending(self, error: Exception) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for dispatch in pending:
            dispatch.fail(type(error).__name__, str(error))

    # -- replica data management -------------------------------------------

    def replicate_table(self, backend: str, table: Table) -> None:
        """Ship ``table`` to every worker's replica of ``backend`` and wait
        for every ack; future respawns bootstrap with it too.

        Before :meth:`start` this is a no-op: the replicas will be built
        from the authoritative backend, which already holds the table.
        """
        with self._lock:
            started = self._started
            spec = self._bootstraps.get(backend)
            if spec is not None:
                spec.tables = [
                    existing for existing in spec.tables
                    if existing.name != table.name
                ] + [table]
        if not started:
            return
        acks = self._broadcast(
            {"op": "register_table", "backend": backend, "table": table},
            timeout=self.timeouts.table_broadcast_s,
        )
        missing = sorted(
            worker_id for worker_id, reply in acks.items() if reply is None
        )
        if missing:
            raise QueryError(
                f"table update not acknowledged by workers {missing}; "
                "replicas may be inconsistent — restart the service"
            )
        errors = {
            worker_id: reply["error"]
            for worker_id, reply in acks.items()
            if reply is not None and "error" in reply
        }
        if errors:
            raise QueryError(f"table update failed on workers: {errors}")

    # -- observability -----------------------------------------------------

    def health(self) -> dict:
        """Per-worker liveness, merged into the service's ``health()``."""
        with self._lock:
            workers = [
                {
                    "id": worker_id,
                    "alive": handle.process.is_alive(),
                    "booted": handle.booted,
                    "pid": handle.process.pid,
                    "generation": handle.generation,
                }
                for worker_id, handle in sorted(self._handles.items())
            ]
            started = self._started
            ejections = self.ejections
        status = "ok"
        if started:
            alive = sum(1 for worker in workers if worker["alive"])
            if alive == 0:
                status = "down"
            elif alive < self.n_workers or ejections:
                # Ejections are permanent: even if every *remaining* slot
                # is alive, capacity is below what was provisioned.
                status = "degraded"
        return {
            "status": status,
            "mode": "processes",
            "workers": workers,
            "ejected_workers": ejections,
        }

    def snapshot(self) -> dict:
        """The ``cluster`` block of the service's ``snapshot()``."""
        with self._lock:
            started = self._started
            n_live = sum(
                1 for handle in self._handles.values() if handle.process.is_alive()
            )
            respawns = self.respawns
            retries = self.retries
            ejections = self.ejections
        worker_stats = (
            {
                worker_id: (reply or {}).get("stats")
                for worker_id, reply in self._broadcast(
                    {"op": "stats"}, timeout=self.timeouts.stats_broadcast_s
                ).items()
            }
            if started
            else {}
        )
        executed_total = sum(
            (stats or {}).get("executed", 0) for stats in worker_stats.values()
        )
        return {
            "workers": self.n_workers,
            "live_workers": n_live,
            "started": started,
            "respawns": respawns,
            "retries": retries,
            "ejections": ejections,
            "executed_total": executed_total,
            "worker_stats": worker_stats,
            "shm_prefix": self.shm_prefix,
        }


class ClusterService(SeeDBService):
    """A :class:`SeeDBService` with a :class:`WorkerRing` attached.

    Only a constructor: ``workers`` / ``ring_replicas`` / ``shm_prefix`` /
    ``start_method`` / ``timeouts`` build the ring, everything else is
    the service's. ``max_workers`` still bounds concurrent *dispatches*
    and should be >= ``workers`` to keep every shard busy. Register
    backends before :meth:`start`; as a convenience the first request
    starts the pool.
    """

    def __init__(
        self,
        workers: int = 2,
        ring_replicas: int = 64,
        shm_prefix: "str | None" = None,
        start_method: "str | None" = None,
        timeouts: "ClusterTimeouts | None" = None,
        **service_kwargs,
    ):
        ring = WorkerRing(workers, ring_replicas, shm_prefix, start_method, timeouts)
        super().__init__(ring=ring, **service_kwargs)

    @property
    def respawns(self) -> int:
        """Workers respawned after a crash, so far."""
        return self._ring.respawns


def cluster_service_from_uri(
    uri: str,
    config: "SeeDBConfig | None" = None,
    workers: int = 2,
    **service_kwargs,
) -> ClusterService:
    """A started cluster over one URI-constructed backend (CLI helper)."""
    service = ClusterService(workers=workers, **service_kwargs)
    service.register_backend_uri(DEFAULT_BACKEND, uri, config=config)
    return service


def single_backend_cluster(
    backend: Backend,
    config: "SeeDBConfig | None" = None,
    owned: bool = False,
    workers: int = 2,
    **service_kwargs,
) -> ClusterService:
    """A cluster wrapping one backend under the default name (tests)."""
    service = ClusterService(workers=workers, **service_kwargs)
    service.register_backend(DEFAULT_BACKEND, backend, config=config, owned=owned)
    return service
