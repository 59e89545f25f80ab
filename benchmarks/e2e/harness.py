"""The system under test, the closed-loop HTTP client and the oracle.

``build_stack`` stands up what ``seedb serve`` stands up — a backend, a
``SeeDBService`` (or ``ClusterService``) with default settings and the
real ``frontend.server`` on a loopback port — and primes it. The client
is one ``http.client`` connection per closed loop, in this process.
"""

from __future__ import annotations

import ctypes
import dataclasses
import http.client
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.frontend.server import serve_in_thread
from repro.service import single_backend_cluster, single_backend_service

import workloads as wl

#: The one config knob the issue fixes; everything else stays default.
CONFIG = SeeDBConfig(k=5)
#: Socket timeout of the client: an op slower than this is a failure.
OP_TIMEOUT_S = 60.0
UTILITY_TOLERANCE = 1e-9

BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}


# -- client -----------------------------------------------------------------


@dataclass
class Sample:
    """One attempted op. ``latency``/``first`` are seconds from the start
    of the op (``register_table`` included, where there is one) to the
    last response byte / the first parsed answer."""

    index: int
    ok: bool
    latency: float = 0.0
    first: float = 0.0
    end: float = 0.0
    #: The answer (response body; for a stream its final NDJSON line),
    #: kept only where the oracle will recompute it.
    answer: "bytes | None" = None
    error: str = ""


class Client:
    """One keep-alive connection driving one closed loop."""

    def __init__(self, address: tuple):
        self._connection = http.client.HTTPConnection(
            address[0], address[1], timeout=OP_TIMEOUT_S
        )

    def post(self, op: wl.Op) -> tuple[int, float, bytes]:
        """Send ``op``; returns ``(status, first_answer_time, answer)``."""
        self._connection.request(
            "POST", op.path, body=op.body,
            headers={"Content-Type": "application/json"},
        )
        response = self._connection.getresponse()
        if op.path == wl.STREAM and response.status == 200:
            # First usable ranking: the first NDJSON line, parsed.
            first_line = response.readline()
            json.loads(first_line)
            first_time = time.perf_counter()
            rest = response.read()
            lines = (first_line + rest).splitlines()
            return response.status, first_time, lines[-1]
        body = response.read()
        return response.status, time.perf_counter(), body

    def close(self) -> None:
        self._connection.close()


def run_closed_loops(
    address: tuple,
    ops: list,
    spec: wl.WorkloadSpec,
    seconds: float,
    before_op=None,
    keep_every: int = 1,
    first: int = 0,
) -> tuple[list[Sample], float]:
    """Serve ``ops[first:]`` in order over ``spec.connections`` closed
    loops until ``seconds`` have passed (the op in flight finishes) or the
    list ends.

    Loop ``c`` takes ops ``first + c, first + c + connections, ...``.
    Returns the samples in op order and the wall seconds from the first
    send to the last response byte.
    """
    samples: list[list[Sample]] = [[] for _ in range(spec.connections)]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(lane: int) -> None:
        client = Client(address)
        try:
            for index in range(first + lane, len(ops), spec.connections):
                if time.perf_counter() >= deadline:
                    break
                samples[lane].append(
                    _one_op(client, ops[index], index, before_op,
                            keep=index % keep_every == 0)
                )
        finally:
            client.close()

    if spec.connections == 1:
        loop(0)
    else:
        threads = [
            threading.Thread(target=loop, args=(lane,), name=f"client-{lane}")
            for lane in range(spec.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    merged = sorted(
        (sample for lane in samples for sample in lane), key=lambda s: s.index
    )
    end = max((sample.end for sample in merged), default=start)
    return merged, end - start


def _one_op(client: Client, op: wl.Op, index: int, before_op, keep: bool) -> Sample:
    start = time.perf_counter()
    try:
        if before_op is not None:
            before_op(op)
        status, first_time, answer = client.post(op)
    except (OSError, http.client.HTTPException, ValueError) as error:
        client.close()  # http.client reconnects on the next request
        return Sample(index, ok=False, end=time.perf_counter(),
                      error=f"{type(error).__name__}: {error}")
    end = time.perf_counter()
    if status != 200:
        return Sample(index, ok=False, end=end,
                      error=f"HTTP {status}: {answer[:200]!r}")
    return Sample(
        index, ok=True, latency=end - start, first=first_time - start,
        end=end, answer=answer if keep else None,
    )


# -- the system under test --------------------------------------------------


@dataclass
class Stack:
    spec: wl.WorkloadSpec
    tables: list
    backend: object
    service: object
    server: object
    thread: threading.Thread
    #: Seconds ``ClusterService.start()`` took (0.0 without a cluster).
    cluster_start_s: float = 0.0

    @property
    def address(self) -> tuple:
        return self.server.server_address[:2]

    def before_op(self):
        """The per-op hook: ``cold_table`` registers the op's variant."""
        if not self.spec.rotates_tables:
            return None
        backend, tables = self.backend, self.tables

        def register(op: wl.Op) -> None:
            backend.register_table(tables[op.variant], replace=True)

        return register

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.service.close()
        self.backend.close()


def build_stack(spec: wl.WorkloadSpec, seed: int) -> Stack:
    """Tables, backend, service, server and priming: everything before the
    first timed op. The caller times this call as ``setup_s``."""
    tables = wl.table_variants(seed, wl.N_VARIANTS if spec.rotates_tables else 1)
    backend = BACKENDS[spec.backend]()
    backend.register_table(tables[0])
    cluster_start_s = 0.0
    if spec.cluster_workers:
        service = single_backend_cluster(
            backend, CONFIG, workers=spec.cluster_workers
        )
        # Fork the workers before any server thread exists.
        started = time.perf_counter()
        service.start()
        cluster_start_s = time.perf_counter() - started
    else:
        service = single_backend_service(backend, CONFIG)
    server, thread = serve_in_thread(service)
    stack = Stack(spec, tables, backend, service, server, thread, cluster_start_s)
    try:
        _prime(stack, seed)
    except BaseException:
        stack.close()
        raise
    return stack


def _prime(stack: Stack, seed: int) -> None:
    """Warm what a long-lived server has warm: engine cache, pools, every
    cluster worker, and (``hot_repeat``) the result cache itself."""
    spec = stack.spec
    render = spec.path == wl.STREAM
    bodies = [
        wl.encode_request(predicate, render=render)
        for predicate in wl.priming_predicates()
    ]
    client = Client(stack.address)
    try:
        def send(body: bytes, path: str = wl.RECOMMEND) -> None:
            status, _, answer = client.post(wl.Op(path, body))
            if status != 200:
                raise RuntimeError(f"priming failed: HTTP {status} {answer[:200]!r}")

        send(bodies[0])
        send(bodies[1])
        if spec.path == wl.STREAM:
            send(bodies[2], wl.STREAM)
        if spec.cluster_workers:
            # Requests route by key hash: keep priming until every worker
            # has executed (and so holds warm metadata for the table).
            for body in bodies[2:]:
                stats = stack.service.snapshot()["cluster"]["worker_stats"]
                if all((s or {}).get("executed", 0) >= 2 for s in stats.values()):
                    break
                send(body)
            else:
                raise RuntimeError("priming never reached every cluster worker")
        if spec.primed_hits:
            # Filling the result cache needs no HTTP round trip (each would
            # add the keep-alive stall to set-up and nothing to warmth).
            for body in wl.hot_requests(seed):
                stack.service.recommend(wl.decode_body(body))
    finally:
        client.close()


# -- processes --------------------------------------------------------------

#: ``prctl`` option (linux/prctl.h): orphaned descendants re-parent to this
#: process instead of to init.
PR_SET_CHILD_SUBREAPER = 36
#: How long a helper may take to end by itself before it is killed.
REAP_GRACE_S = 10.0


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that outlives its
    own parent, so ``reap_descendants`` can wait for it. The cluster's
    workers each start a ``multiprocessing`` resource tracker (first
    shared-memory segment) that ends only after its worker has."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_descendants() -> int:
    """Stop this process's own resource tracker and wait until no child
    (own or adopted) is left; one still running after ``REAP_GRACE_S`` is
    killed. Call after every stack is closed — ``multiprocessing`` has
    joined its workers by then. Returns how many children were reaped."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        # The tracker runs until the last write end of this pipe closes.
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    reaped, killed = 0, False
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
        elif time.monotonic() < deadline or killed:
            time.sleep(0.005)
        else:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True


def _child_pids() -> list[int]:
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # "pid (comm) state ppid ...": comm may hold spaces.
                    ppid = int(stat.read().rpartition(")")[2].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == me:
                children.append(int(entry))
    return children


# -- correctness oracle -----------------------------------------------------


def answer_views(answer: bytes) -> list[tuple[str, float]]:
    """``(label, utility)`` of the top-k in a response body / final line."""
    payload = json.loads(answer)
    return [
        (view["label"], float(view["utility"]))
        for view in payload["recommendations"]
    ]


def result_views(result) -> list[tuple[str, float]]:
    """``(label, utility)`` of a ``RecommendationResult``'s top-k."""
    return [(view.spec.label, float(view.utility)) for view in result.recommendations]


def same_views(got: list, expected: list) -> bool:
    return len(got) == len(expected) and all(
        g_label == e_label and abs(g_utility - e_utility) <= UTILITY_TOLERANCE
        for (g_label, g_utility), (e_label, e_utility) in zip(got, expected)
    )


class Oracle:
    """Recomputes answers with a direct ``SeeDB(<same backend kind>)`` on a
    backend of its own — no service, no server, no cache between calls
    except the engine's metadata."""

    def __init__(self, spec: wl.WorkloadSpec, tables: list):
        self._spec = spec
        self._tables = tables
        self._facades: dict[int, tuple] = {}
        self._memo: dict[tuple, list] = {}

    def expected(self, op: wl.Op) -> list[tuple[str, float]]:
        variant = op.variant or 0
        key = (variant, op.path, op.body)
        if key not in self._memo:
            request = wl.decode_body(op.body)
            if op.path == wl.STREAM:
                # A stream's final line must equal the blocking
                # incremental answer.
                request = dataclasses.replace(request, strategy="incremental")
            self._memo[key] = result_views(self._facade(variant).recommend(request))
        return self._memo[key]

    def _facade(self, variant: int) -> SeeDB:
        if variant not in self._facades:
            backend = BACKENDS[self._spec.backend]()
            backend.register_table(self._tables[variant])
            self._facades[variant] = (SeeDB(backend, CONFIG), backend)
        return self._facades[variant][0]

    def close(self) -> None:
        for facade, backend in self._facades.values():
            facade.close()
            backend.close()
        self._facades.clear()


def check_answers(spec, tables, ops, samples) -> list[str]:
    """Mismatch descriptions for every kept answer the oracle disagrees
    with (run after the timed window, never inside it)."""
    oracle = Oracle(spec, tables)
    problems = []
    try:
        for sample in samples:
            if not sample.ok or sample.answer is None:
                continue
            try:
                got = answer_views(sample.answer)
            except (ValueError, KeyError, TypeError) as error:
                problems.append(f"op {sample.index}: unreadable answer ({error})")
                continue
            expected = oracle.expected(ops[sample.index])
            if not same_views(got, expected):
                problems.append(
                    f"op {sample.index}: got {got[:2]}..., oracle {expected[:2]}..."
                )
    finally:
        oracle.close()
    return problems
