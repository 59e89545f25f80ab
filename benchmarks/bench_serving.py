"""Serving benchmark: concurrent multi-session throughput vs a serial loop.

The serving acceptance bar for the service layer: 8 concurrent sessions
hammering one shared :class:`SeeDBService` must beat the same request
stream executed serially by ≥ 2× throughput on the memory backend, with
request coalescing observably engaged. The win comes from exactly the
mechanisms the service adds — identical in-flight requests collapse to
one execution, finished results fan out from the shared LRU, and the
engine cache is warm across every session — so this benchmark doubles as
a regression tripwire for all three.

The workers axis measures the *process* tier instead: a stream of unique
predicates (nothing coalesces, nothing caches — pure execution
throughput) against the thread tier and against clusters of 1/2/4 worker
processes, emitting the ``process_scaling_ratio`` headline =
cluster-of-4 throughput over single-process-thread-tier throughput. The
strict ≥ 2.5× bar only applies where it is physically reachable (≥ 4
usable cores); constrained boxes record the honest number and assert
sanity only.

Emits ``BENCH_serving.json`` (rows: serial baseline, coalesced+cached
service, ablation with both off, then the workers axis) with throughput
and p50/p95 latency.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier, Lock

import pytest

from repro.api import RecommendationRequest
from repro.backends.duckdb import duckdb_available
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.service import single_backend_cluster, single_backend_service

N_SESSIONS = 8
REQUESTS_PER_SESSION = 8
K = 3

#: Workers axis: unique requests (no two coalesce) and the process tiers.
SCALING_REQUESTS = 24
WORKER_TIERS = (1, 2, 4)
USABLE_CORES = len(os.sched_getaffinity(0))


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=20_000, n_dimensions=6, n_measures=2,
                        cardinality=12),
        seed=77,
    )
    table = dataset.table
    # Four distinct analyst queries; sessions all walk them in the same
    # order, so identical requests overlap in flight (coalescing) and
    # repeat across sessions (result cache).
    queries = [RowSelectQuery(table.name, dataset.predicate)]
    for dim in ("d0", "d1", "d2"):
        value = table.column(dim)[0]
        queries.append(RowSelectQuery(table.name, col(dim) == value))
    stream = [
        queries[step % len(queries)] for step in range(REQUESTS_PER_SESSION)
    ]
    return table, stream


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_serial(table, stream, backend_factory=MemoryBackend):
    """The baseline: one warm facade, every request of every session in a
    loop (same total work, no concurrency, no service machinery)."""
    backend = backend_factory()
    backend.register_table(table)
    seedb = SeeDB(backend, SeeDBConfig(k=K))
    latencies = []
    start = time.perf_counter()
    for _ in range(N_SESSIONS):
        for query in stream:
            t0 = time.perf_counter()
            seedb.recommend(RecommendationRequest(query))
            latencies.append(time.perf_counter() - t0)
    total = time.perf_counter() - start
    seedb.close()
    backend.close()
    return total, sorted(latencies), None


def run_service(
    table, stream, coalesce: bool, cache_size: int, backend_factory=MemoryBackend
):
    backend = backend_factory()
    backend.register_table(table)
    service = single_backend_service(
        backend,
        SeeDBConfig(k=K),
        max_workers=N_SESSIONS,
        coalesce_requests=coalesce,
        result_cache_size=cache_size,
    )
    latencies = []
    barrier = Barrier(N_SESSIONS)
    lock = Lock()

    def session(_: int):
        barrier.wait(timeout=60)
        mine = []
        for query in stream:
            t0 = time.perf_counter()
            service.recommend(RecommendationRequest(query))
            mine.append(time.perf_counter() - t0)
        with lock:
            latencies.extend(mine)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=N_SESSIONS) as pool:
        for future in [pool.submit(session, i) for i in range(N_SESSIONS)]:
            future.result(timeout=600)
    total = time.perf_counter() - start
    stats = service.snapshot()
    service.close()
    backend.close()
    return total, sorted(latencies), stats


@pytest.fixture(scope="module")
def scaling_workload(workload):
    """Unique-predicate stream: every request is distinct work.

    Coalescing and the result cache cannot collapse any of it, so
    throughput here is raw execution parallelism — exactly what worker
    processes buy past the GIL and threads cannot."""
    table, _ = workload
    queries = []
    for dim in ("d0", "d1"):
        for value in sorted(set(table.column(dim).tolist())):
            queries.append(RowSelectQuery(table.name, col(dim) == value))
    assert len(queries) >= SCALING_REQUESTS
    return table, queries[:SCALING_REQUESTS]


def _wait_booted(service, deadline_s: float = 60.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        workers = service.health().get("workers", [])
        if workers and all(w["alive"] and w["booted"] for w in workers):
            return
        time.sleep(0.05)
    raise TimeoutError("cluster workers did not boot")


def run_scaling_tier(table, queries, workers: int):
    """One tier of the workers axis: 0 = threads, N >= 1 = cluster of N.

    Spawn/boot cost stays outside the timed window (a serving tier boots
    once and then serves); the storm itself is N_SESSIONS client threads
    splitting the unique stream."""
    backend = MemoryBackend()
    backend.register_table(table)
    kwargs = dict(
        max_workers=N_SESSIONS, coalesce_requests=True, result_cache_size=256
    )
    if workers == 0:
        service = single_backend_service(backend, SeeDBConfig(k=K), **kwargs)
    else:
        service = single_backend_cluster(
            backend, SeeDBConfig(k=K), workers=workers, **kwargs
        )
        service.start()
        _wait_booted(service)
    try:
        slices = [queries[i::N_SESSIONS] for i in range(N_SESSIONS)]
        barrier = Barrier(N_SESSIONS)

        def session(index: int):
            barrier.wait(timeout=60)
            for query in slices[index]:
                service.recommend(RecommendationRequest(query))

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=N_SESSIONS) as pool:
            for future in [pool.submit(session, i) for i in range(N_SESSIONS)]:
                future.result(timeout=600)
        total = time.perf_counter() - start
        stats = service.snapshot()
    finally:
        service.close()
        backend.close()
    return total, stats


def test_concurrent_sessions_beat_serial_loop(
    benchmark, record_rows, workload, scaling_workload
):
    table, stream = workload
    _, scale_queries = scaling_workload
    n_requests = N_SESSIONS * len(stream)

    def sweep():
        rows = []
        serial_total, serial_lat, _ = run_serial(table, stream)
        configs = [
            ("serial_loop", None, serial_total, serial_lat, None),
        ]
        for label, coalesce, cache in (
            ("service_coalesce_cache", True, 256),
            ("service_no_coalesce_no_cache", False, 0),
        ):
            total, lat, stats = run_service(table, stream, coalesce, cache)
            configs.append((label, coalesce, total, lat, stats))
        for label, _, total, lat, stats in configs:
            row = {
                "mode": label,
                "sessions": 1 if label == "serial_loop" else N_SESSIONS,
                "requests": n_requests,
                "total_s": round(total, 4),
                "throughput_rps": round(n_requests / total, 2),
                "p50_latency_ms": round(percentile(lat, 0.50) * 1e3, 2),
                "p95_latency_ms": round(percentile(lat, 0.95) * 1e3, 2),
                "speedup_vs_serial": round(serial_total / total, 2),
            }
            if stats is not None:
                row["executions"] = stats["executions"]
                row["coalesced"] = stats["coalesced"]
                row["result_cache_hits"] = stats["result_cache_hits"]
            rows.append(row)
        # The workers axis: the same unique-predicate storm against the
        # thread tier and 1/2/4-process clusters. process_scaling_ratio
        # is each cluster's throughput over the thread tier's.
        thread_total, thread_stats = run_scaling_tier(table, scale_queries, 0)
        thread_rps = len(scale_queries) / thread_total
        rows.append(
            {
                "mode": "scaling_threads",
                "sessions": N_SESSIONS,
                "worker_processes": 0,
                "requests": len(scale_queries),
                "total_s": round(thread_total, 4),
                "throughput_rps": round(thread_rps, 2),
                "executions": thread_stats["executions"],
                "usable_cores": USABLE_CORES,
            }
        )
        for tier in WORKER_TIERS:
            total, stats = run_scaling_tier(table, scale_queries, tier)
            rows.append(
                {
                    "mode": f"scaling_cluster_{tier}w",
                    "sessions": N_SESSIONS,
                    "worker_processes": tier,
                    "requests": len(scale_queries),
                    "total_s": round(total, 4),
                    "throughput_rps": round(len(scale_queries) / total, 2),
                    "process_scaling_ratio": round(
                        (len(scale_queries) / total) / thread_rps, 3
                    ),
                    "executions": stats["executions"],
                    "usable_cores": USABLE_CORES,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("serving", rows)
    by_mode = {row["mode"]: row for row in rows}
    served = by_mode["service_coalesce_cache"]
    # The acceptance bar: ≥ 2× the serial-loop baseline at 8 sessions,
    # with coalescing observed (every session issues the same first
    # request simultaneously — at most one of them may execute it).
    assert served["speedup_vs_serial"] >= 2.0
    assert served["coalesced"] > 0
    assert served["executions"] < N_SESSIONS * len(stream)
    # The workers-axis bar: 4 processes ≥ 2.5× the thread tier — but only
    # where 4 processes can actually run in parallel. On constrained
    # boxes (CI sandboxes pinned to 1-2 cores) the ratio is recorded
    # honestly and only sanity is asserted: every unique request executed
    # exactly once on every tier (sharding did not drop or double work).
    cluster4 = by_mode["scaling_cluster_4w"]
    for tier in WORKER_TIERS:
        assert by_mode[f"scaling_cluster_{tier}w"]["executions"] == len(
            scale_queries
        )
    if USABLE_CORES >= 4:
        assert cluster4["process_scaling_ratio"] >= 2.5
    else:
        assert cluster4["process_scaling_ratio"] > 0.2


@pytest.mark.skipif(
    not duckdb_available(), reason="optional 'duckdb' wheel not installed"
)
def test_concurrent_sessions_duckdb_axis(record_rows, workload):
    """The DuckDB axis of the serving benchmark: the same session storm
    against a real columnar engine (per-thread cursors on one in-memory
    database). Emits ``BENCH_serving_duckdb.json``; asserts the service
    machinery still engages (coalescing observed, executions collapsed) —
    the throughput bar stays with the memory axis, where backend time is
    negligible and the service layer dominates."""
    from repro.backends.duckdb import DuckDbBackend

    table, stream = workload
    n_requests = N_SESSIONS * len(stream)
    serial_total, serial_lat, _ = run_serial(
        table, stream, backend_factory=DuckDbBackend
    )
    total, lat, stats = run_service(
        table, stream, True, 256, backend_factory=DuckDbBackend
    )
    rows = []
    for label, run_total, run_lat, run_stats in (
        ("serial_loop", serial_total, serial_lat, None),
        ("service_coalesce_cache", total, lat, stats),
    ):
        row = {
            "mode": label,
            "sessions": 1 if label == "serial_loop" else N_SESSIONS,
            "requests": n_requests,
            "total_s": round(run_total, 4),
            "throughput_rps": round(n_requests / run_total, 2),
            "p50_latency_ms": round(percentile(run_lat, 0.50) * 1e3, 2),
            "p95_latency_ms": round(percentile(run_lat, 0.95) * 1e3, 2),
            "speedup_vs_serial": round(serial_total / run_total, 2),
        }
        if run_stats is not None:
            row["executions"] = run_stats["executions"]
            row["coalesced"] = run_stats["coalesced"]
            row["result_cache_hits"] = run_stats["result_cache_hits"]
        rows.append(row)
    record_rows("serving_duckdb", rows)

    assert stats["coalesced"] > 0
    assert stats["executions"] < n_requests


def test_deadline_axis(record_rows, workload):
    """The deadline-lifecycle axis: the same memory-backend workload with
    per-request budgets attached. ``deadline_hit_rate`` — the fraction of
    requests that came back *complete* within their budget — is the
    headline the trend gate watches (generous budgets must stay ~1.0; a
    drop means executions got slower or deadline accounting broke).
    Starved budgets are recorded honestly on their own row: those
    requests must still terminate typed (a partial result or
    ``DeadlineExceeded``), which the loop enforces by construction.
    """
    from repro.util.errors import DeadlineExceeded

    table, stream = workload
    requests = stream * 2
    rows = []
    for label, deadline_ms in (
        ("deadline_generous", 30_000),
        ("deadline_tight", 5),
    ):
        backend = MemoryBackend()
        backend.register_table(table)
        # No coalescing, no cache: every request is a real execution with
        # its own budget, so the hit rate measures the engine, not reuse.
        service = single_backend_service(
            backend,
            SeeDBConfig(k=K),
            max_workers=N_SESSIONS,
            coalesce_requests=False,
            result_cache_size=0,
        )
        full = partials = exceeded = 0
        latencies = []
        start = time.perf_counter()
        for query in requests:
            t0 = time.perf_counter()
            try:
                result = service.recommend(
                    RecommendationRequest(query, options={"deadline_ms": deadline_ms})
                )
                if result.partial:
                    partials += 1
                else:
                    full += 1
            except DeadlineExceeded:
                exceeded += 1
            latencies.append(time.perf_counter() - t0)
        total = time.perf_counter() - start
        service.close()
        backend.close()
        n = len(requests)
        latencies.sort()
        rows.append(
            {
                "mode": label,
                "deadline_ms": deadline_ms,
                "requests": n,
                "deadline_hit_rate": round(full / n, 3),
                "partial_results": partials,
                "deadline_exceeded": exceeded,
                "total_s": round(total, 4),
                "p50_latency_ms": round(percentile(latencies, 0.50) * 1e3, 2),
                "p95_latency_ms": round(percentile(latencies, 0.95) * 1e3, 2),
            }
        )
    record_rows("serving_deadlines", rows)
    by_mode = {row["mode"]: row for row in rows}
    generous = by_mode["deadline_generous"]
    tight = by_mode["deadline_tight"]
    # The portable bar: with 30s budgets on this workload every request
    # completes in full. Tight budgets assert only the ledger: every
    # request terminated in exactly one of the three typed outcomes.
    assert generous["deadline_hit_rate"] >= 0.9
    assert (
        tight["deadline_hit_rate"] * tight["requests"]
        + tight["partial_results"]
        + tight["deadline_exceeded"]
        == tight["requests"]
    )
