"""Integration: concurrent multi-session serving is exactly serial-correct.

The acceptance bar for the serving refactor: N threads hammering one
shared service must produce *bit-identical* results to a serial loop — on
both backends, with request coalescing on and off — and a writer bumping
``data_version`` mid-flight must never corrupt the shared cache (runs see
a consistent snapshot; post-write runs see the new data).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.service import single_backend_service

from tests.conftest import make_medium_table

N_THREADS = 8

#: A mixed workload: distinct predicates (some repeated across threads so
#: coalescing and the result cache both engage).
QUERIES = [
    RowSelectQuery("orders", col("product") == "p0"),
    RowSelectQuery("orders", col("product") == "p1"),
    RowSelectQuery("orders", col("region") == "r0"),
    RowSelectQuery("orders", col("product") == "p0"),  # repeat on purpose
]


def fingerprint(result) -> tuple:
    """Everything that must match bit-for-bit between serial and threaded
    runs: the ranked specs and every executed view's exact utility."""
    return (
        tuple(view.spec for view in result.recommendations),
        tuple(sorted(result.utilities.items())),
    )


def make_backend(kind: str, table):
    backend = MemoryBackend() if kind == "memory" else SqliteBackend()
    backend.register_table(table)
    return backend


@pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
@pytest.mark.parametrize("coalesce", [True, False])
def test_threaded_service_matches_serial(backend_kind, coalesce):
    table = make_medium_table()

    # Serial ground truth: a plain facade, one query at a time.
    serial_backend = make_backend(backend_kind, table)
    serial = SeeDB(serial_backend, SeeDBConfig(k=3))
    expected = {}
    for index, query in enumerate(QUERIES):
        expected[index % len(QUERIES)] = fingerprint(
            serial.recommend(RecommendationRequest(query))
        )
    serial.close()
    if backend_kind == "sqlite":
        serial_backend.close()

    # Threaded: N sessions × the whole workload against one shared service.
    backend = make_backend(backend_kind, table)
    service = single_backend_service(
        backend,
        SeeDBConfig(k=3),
        owned=(backend_kind == "sqlite"),
        max_workers=N_THREADS,
        coalesce_requests=coalesce,
    )
    try:
        def session(worker: int) -> list[tuple[int, tuple]]:
            out = []
            # Stagger starting offsets so distinct queries overlap in flight.
            for step in range(len(QUERIES)):
                index = (worker + step) % len(QUERIES)
                result = service.recommend(RecommendationRequest(QUERIES[index]))
                out.append((index, fingerprint(result)))
            return out

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            all_results = list(pool.map(session, range(N_THREADS)))

        for per_session in all_results:
            for index, got in per_session:
                assert got == expected[index], (
                    f"threaded result for query #{index} diverged from serial"
                )
        stats = service.stats
        assert stats.requests == N_THREADS * len(QUERIES)
        assert stats.failed == 0
        assert stats.requests == (
            stats.executions + stats.coalesced + stats.result_cache_hits
        )
        # The whole point of the shared service: far fewer executions than
        # requests once coalescing + the shared result cache engage.
        assert stats.executions < stats.requests
    finally:
        service.close()


def test_coalescing_observed_under_concurrency():
    """With the result cache off, simultaneous identical requests must
    coalesce onto in-flight executions (the /stats signal the serving
    benchmark asserts on)."""
    table = make_medium_table()
    backend = make_backend("memory", table)
    service = single_backend_service(
        backend,
        SeeDBConfig(k=3),
        max_workers=N_THREADS,
        result_cache_size=0,
    )
    try:
        # The execution starts only once every session has submitted: a run
        # that finished before a late session arrived would leave nothing
        # in flight to coalesce onto.
        joined = threading.Barrier(N_THREADS + 1, timeout=30)
        engine = service.engine()
        inner = engine.recommend

        def held_recommend(resolved, **kwargs):
            joined.wait()
            return inner(resolved, **kwargs)

        engine.recommend = held_recommend
        query = QUERIES[0]

        def session(_: int):
            future = service.submit(RecommendationRequest(query))
            joined.wait()
            return fingerprint(future.result(timeout=60))

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            results = list(pool.map(session, range(N_THREADS)))
        assert len(set(results)) == 1
        assert service.stats.coalesced == N_THREADS - 1
        assert service.stats.executions == 1
    finally:
        service.close()


class TestInvalidationUnderWrite:
    def test_writer_racing_readers_never_corrupts(self):
        """A writer republishing the table (bumping ``data_version``) while
        readers recommend: every read succeeds, and once writes stop the
        service serves exactly what a fresh engine computes on final data.
        """
        table = make_medium_table()
        backend = MemoryBackend()
        backend.register_table(table)
        # No result cache: every request exercises engine + shared
        # EngineCache sync against the moving data_version.
        service = single_backend_service(
            backend, SeeDBConfig(k=3), max_workers=4, result_cache_size=0
        )
        query = QUERIES[0]
        stop = threading.Event()
        writer_errors = []

        def writer():
            while not stop.is_set():
                try:
                    backend.register_table(table, replace=True)
                except Exception as exc:  # noqa: BLE001
                    writer_errors.append(exc)
                    return

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(service.recommend, RecommendationRequest(query))
                    for _ in range(24)
                ]
                results = [f.result(timeout=120) for f in futures]
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not writer_errors
        # Same data republished: every racing run saw a consistent snapshot
        # and must agree with serial ground truth.
        fresh = SeeDB(backend, SeeDBConfig(k=3))
        expected = fingerprint(fresh.recommend(RecommendationRequest(query)))
        fresh.close()
        for result in results:
            assert fingerprint(result) == expected
        # After the dust settles the service itself also agrees.
        assert fingerprint(service.recommend(RecommendationRequest(query))) == expected
        assert service.engine().cache.stats.invalidations > 0
        service.close()


class TestSqliteConnectionLifecycle:
    def test_worker_thread_connections_closed_with_backend(self, sales_table):
        backend = SqliteBackend()
        path = backend._path
        backend.register_table(sales_table)
        service = single_backend_service(
            backend,
            SeeDBConfig(k=2),
            owned=True,
            max_workers=4,
            result_cache_size=0,
            coalesce_requests=False,
        )
        queries = [
            RowSelectQuery("sales", col("product") == "Laserwave"),
            RowSelectQuery("sales", col("product") == "Other"),
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(service.recommend, RecommendationRequest(queries[i % 2]))
                for i in range(8)
            ]
            for future in futures:
                future.result(timeout=120)
        # Concurrent requests' statements each leased their own connection.
        assert backend.open_connections > 1
        service.close()
        # The leak fix: every tracked connection is closed, and the
        # database file plus its WAL sidecars are gone.
        assert backend.open_connections == 0
        for leftover in (path, path + "-wal", path + "-shm"):
            assert not os.path.exists(leftover)

    def test_close_is_idempotent_across_threads(self, sales_table):
        backend = SqliteBackend()
        backend.register_table(sales_table)
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(backend.row_count, "sales")] * 4:
                future.result(timeout=30)
        backend.close()
        backend.close()  # second close finds nothing to do
        assert backend.open_connections == 0


class TestAtomicAccounting:
    def test_query_counter_exact_under_concurrent_load(self, sales_table):
        """Satellite check: concurrent runs sum to exactly the serial
        query count times the number of runs (no lost increments)."""
        for backend_factory in (MemoryBackend, SqliteBackend):
            backend = backend_factory()
            backend.register_table(sales_table)
            try:
                query = RowSelectQuery("sales", col("product") == "Laserwave")
                seedb = SeeDB(backend, SeeDBConfig(k=2))
                # warm the engine cache first
                seedb.recommend(RecommendationRequest(query))
                baseline = backend.queries_executed
                seedb.recommend(RecommendationRequest(query))
                per_run = backend.queries_executed - baseline
                assert per_run > 0
                backend.reset_counters()
                runs = 12
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [
                        pool.submit(seedb.recommend, RecommendationRequest(query))
                        for _ in range(runs)
                    ]
                    for future in futures:
                        future.result(timeout=120)
                assert backend.queries_executed == per_run * runs
                seedb.close()
            finally:
                close = getattr(backend, "close", None)
                if close is not None:
                    close()

    def test_data_version_bumps_are_not_lost(self, sales_table):
        backend = MemoryBackend()
        backend.register_table(sales_table)
        before = backend.data_version
        bumps_per_thread = 50
        def churn():
            for _ in range(bumps_per_thread):
                backend.register_table(sales_table, replace=True)
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.data_version == before + 4 * bumps_per_thread
