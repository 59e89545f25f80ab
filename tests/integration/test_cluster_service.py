"""Integration: the multi-process sharded serving tier is serial-correct.

The acceptance bar for the cluster refactor mirrors the thread-tier one,
one level up: N clients hammering a :class:`ClusterService` must get
*bit-identical* results to a serial facade — on memory AND sqlite — with
identical concurrent requests coalescing onto ONE execution in ONE worker
process. On top of that, the process tier adds lifecycle guarantees the
thread tier never needed: workers are respawned after a crash (in-flight
work retried on a sibling shard), ``update_table`` invalidates every
replica and every cached result atomically, and every result field
crosses the reply pipe intact.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.service import single_backend_cluster

from tests.conftest import make_medium_table
from tests.integration.test_service_concurrency import (
    QUERIES,
    fingerprint,
    make_backend,
)

N_CLIENTS = 8


def make_cluster(backend_kind: str, table, **kwargs):
    backend = make_backend(backend_kind, table)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("max_workers", N_CLIENTS)
    return single_backend_cluster(
        backend,
        SeeDBConfig(k=3),
        owned=(backend_kind == "sqlite"),
        **kwargs,
    )


def serial_expected(backend_kind: str, table, queries=QUERIES) -> dict:
    backend = make_backend(backend_kind, table)
    facade = SeeDB(backend, SeeDBConfig(k=3))
    expected = {}
    for index, query in enumerate(queries):
        expected[index % len(queries)] = fingerprint(
            facade.recommend(RecommendationRequest(query))
        )
    facade.close()
    if backend_kind == "sqlite":
        backend.close()
    return expected


class TestCrossProcessCoalescing:
    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_identical_concurrent_requests_execute_once(self, backend_kind):
        """The headline guarantee: N identical concurrent requests → one
        execution, on one worker, bit-identical to serial — across
        process boundaries."""
        table = make_medium_table()
        expected = serial_expected(backend_kind, table)[0]
        service = make_cluster(backend_kind, table)
        try:
            service.start()
            barrier = threading.Barrier(N_CLIENTS)
            query = QUERIES[0]

            def client(_: int):
                barrier.wait(timeout=30)
                return fingerprint(service.recommend(RecommendationRequest(query)))

            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                results = list(pool.map(client, range(N_CLIENTS)))

            assert all(result == expected for result in results)
            stats = service.stats
            assert stats.requests == N_CLIENTS
            assert stats.executions == 1
            assert stats.failed == 0
            assert stats.coalesced + stats.result_cache_hits == N_CLIENTS - 1
        finally:
            service.close()

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_mixed_workload_matches_serial(self, backend_kind):
        table = make_medium_table()
        expected = serial_expected(backend_kind, table)
        service = make_cluster(backend_kind, table)
        try:
            def client(worker: int) -> list:
                out = []
                for step in range(len(QUERIES)):
                    index = (worker + step) % len(QUERIES)
                    result = service.recommend(RecommendationRequest(QUERIES[index]))
                    out.append((index, fingerprint(result)))
                return out

            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                all_results = list(pool.map(client, range(N_CLIENTS)))

            for per_client in all_results:
                for index, got in per_client:
                    assert got == expected[index], (
                        f"cluster result for query #{index} diverged from serial"
                    )
            stats = service.stats
            assert stats.failed == 0
            assert stats.requests == N_CLIENTS * len(QUERIES)
            assert stats.executions < stats.requests
        finally:
            service.close()

    def test_coalescing_without_result_cache(self):
        """With the result cache off coalescing alone still collapses
        identical in-flight requests."""
        table = make_medium_table()
        service = make_cluster("memory", table, result_cache_size=0)
        try:
            # The job is dispatched to a worker only once every client has
            # submitted: a reply that came back before a late client
            # arrived would leave nothing in flight to coalesce onto.
            joined = threading.Barrier(N_CLIENTS + 1, timeout=30)
            inner = service._run

            def held_run(job):
                joined.wait()
                inner(job)

            service._run = held_run

            def client(_: int):
                future = service.submit(RecommendationRequest(QUERIES[0]))
                joined.wait()
                return fingerprint(future.result(timeout=60))

            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                results = list(pool.map(client, range(N_CLIENTS)))
            assert len(set(results)) == 1
            assert service.stats.coalesced == N_CLIENTS - 1
            assert service.stats.executions == 1
        finally:
            service.close()


class TestResultFields:
    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_plan_decision_crosses_the_process_boundary(self, backend_kind):
        """Regression: a cluster result used to arrive with
        ``plan_decision=None``. It must carry the planner's decision
        record like an in-process run of the same request does."""
        table = make_medium_table()
        request = RecommendationRequest(QUERIES[0])
        backend = make_backend(backend_kind, table)
        facade = SeeDB(backend, SeeDBConfig(k=3))
        try:
            local = facade.recommend(request).plan_decision
        finally:
            facade.close()
            if backend_kind == "sqlite":
                backend.close()
        service = make_cluster(backend_kind, table)
        try:
            remote = service.recommend(request).plan_decision
        finally:
            service.close()
        assert local is not None
        assert remote is not None
        assert set(remote) == set(local)
        assert remote["kind"] == local["kind"]


class TestWorkerCrash:
    def test_kill_under_load_stays_serial_correct(self):
        """SIGKILL one worker while clients are mid-flight: every client
        still gets a bit-identical-to-serial answer (in-flight work is
        retried on a sibling), and the pool heals by respawning."""
        table = make_medium_table()
        expected = serial_expected("memory", table)
        # No result cache: every non-coalesced request round-trips to a
        # worker, so the kill window is full of real in-flight dispatches.
        service = make_cluster("memory", table, result_cache_size=0)
        try:
            service.start()
            total = N_CLIENTS * len(QUERIES)

            def client(worker: int) -> list:
                out = []
                for step in range(len(QUERIES)):
                    index = (worker + step) % len(QUERIES)
                    result = service.recommend(RecommendationRequest(QUERIES[index]))
                    out.append((index, fingerprint(result)))
                return out

            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                futures = [pool.submit(client, i) for i in range(N_CLIENTS)]
                # Gate the kill on observed progress — NOT a sleep: the
                # run must be provably mid-flight when the worker dies
                # (SIGKILL delivery is async; a timer can miss the load
                # window entirely on a slow or single-core box).
                deadline = time.monotonic() + 60
                while service.stats.completed < 2:
                    if time.monotonic() > deadline:
                        pytest.fail("no request progress before kill window")
                    time.sleep(0.005)
                victim = service.health()["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                all_results = [f.result(timeout=240) for f in futures]

            for per_client in all_results:
                for index, got in per_client:
                    assert got == expected[index], (
                        f"post-crash result for query #{index} diverged"
                    )
            stats = service.stats
            assert stats.failed == 0
            assert stats.requests == total
            assert stats.completed == stats.executions

            # The pool healed: the victim respawned (new generation) or —
            # if it died idle — is simply still the same live process.
            deadline = time.monotonic() + 30
            while True:
                workers = {w["id"]: w for w in service.health()["workers"]}
                healed = victim["id"] in workers and workers[victim["id"]]["alive"]
                if healed or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert healed, f"worker {victim['id']} never respawned: {workers}"
            assert workers[victim["id"]]["pid"] != victim["pid"]
            assert service.respawns >= 1

            # And the healed pool still serves correctly.
            assert fingerprint(
                service.recommend(RecommendationRequest(QUERIES[0]))
            ) == expected[0]
        finally:
            service.close()


class TestInvalidation:
    def test_update_table_invalidates_every_replica_and_cache(self):
        """A table republish must bump ``data_version`` everywhere: the
        cached result is retired, every worker replica re-executes on
        the new rows, and the answer matches a fresh serial engine."""
        table = make_medium_table()
        service = make_cluster("memory", table)
        try:
            query = QUERIES[0]
            before = fingerprint(service.recommend(RecommendationRequest(query)))
            assert fingerprint(
                service.recommend(RecommendationRequest(query))
            ) == before
            assert service.stats.result_cache_hits >= 1

            # Rebuild the table with visibly different data: clip to the
            # first 1000 rows, which changes every p0 distribution.
            from repro.db.table import Table

            updated = Table(
                name=table.name,
                schema=table.schema,
                columns={
                    name: column[:1000] for name, column in table.columns.items()
                },
            )
            service.update_table(updated)

            after = fingerprint(service.recommend(RecommendationRequest(query)))

            fresh_backend = MemoryBackend()
            fresh_backend.register_table(updated)
            fresh = SeeDB(fresh_backend, SeeDBConfig(k=3))
            assert after == fingerprint(fresh.recommend(RecommendationRequest(query)))
            fresh.close()
            assert after != before  # the data actually changed
            assert service.stats.failed == 0
        finally:
            service.close()


class TestLifecycle:
    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_repeats_are_lru_hits_no_worker_sees(self, backend_kind):
        """Results are cached once, router-side: repeats are LRU hits no
        worker ever sees."""
        table = make_medium_table()
        service = make_cluster(backend_kind, table)
        try:
            distinct = QUERIES[:3]  # QUERIES[3] repeats QUERIES[0]
            for query in distinct:
                service.recommend(RecommendationRequest(query))
            snap = service.snapshot()
            executed = snap["cluster"]["executed_total"]
            assert executed == snap["executions"] == len(distinct)

            for query in distinct * 2:
                service.recommend(RecommendationRequest(query))
            snap = service.snapshot()
            assert snap["result_cache_hits"] == 2 * len(distinct)
            assert snap["cluster"]["executed_total"] == executed
        finally:
            service.close()

    def test_close_is_idempotent_and_joins_workers(self):
        table = make_medium_table()
        service = make_cluster("memory", table)
        service.recommend(RecommendationRequest(QUERIES[0]))
        pids = [w["pid"] for w in service.health()["workers"]]
        service.close()
        service.close()  # second close is a no-op
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: the process is gone

    def test_health_reports_per_worker_liveness(self):
        table = make_medium_table()
        service = make_cluster("memory", table)
        try:
            assert service.health()["workers"] == []  # not started yet
            service.start()
            health = service.health()
            assert health["status"] == "ok"
            assert health["mode"] == "processes"
            assert len(health["workers"]) == 2
            assert all(w["alive"] for w in health["workers"])
            # "booted" flips when the router processes each worker's "up"
            # handshake — asynchronous, so poll.
            deadline = time.monotonic() + 30
            while not all(w["booted"] for w in service.health()["workers"]):
                if time.monotonic() > deadline:
                    pytest.fail(f"workers never booted: {service.health()}")
                time.sleep(0.02)
        finally:
            service.close()


_ORPHAN_SCRIPT = """
import sys, time
from repro.service import ClusterTimeouts, single_backend_cluster
from repro.backends.memory import MemoryBackend
from tests.conftest import make_medium_table

backend = MemoryBackend()
backend.register_table(make_medium_table())
service = single_backend_cluster(
    backend, workers=2, timeouts=ClusterTimeouts(worker_idle_poll_s=0.2)
)
service.start()
while not all(w["booted"] for w in service.health()["workers"]):
    time.sleep(0.02)
print(*[w["pid"] for w in service.health()["workers"]], flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Alive and not a zombie (nobody reaps an orphan's orphans here)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestOrphanedWorkers:
    def test_per_service_idle_poll_reaches_workers(self):
        """Regression: ``ClusterTimeouts(worker_idle_poll_s=...)`` passed
        to one service must set *its workers'* reparenting heartbeat (it
        used to be re-read from the environment inside the worker): with
        a 0.2 s poll, workers orphaned by a SIGKILLed router are gone
        well inside the 5 s default."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), os.path.abspath("."),
                          env.get("PYTHONPATH", "")])
        )
        router = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids = []
        try:
            pids = [int(pid) for pid in router.stdout.readline().split()]
            assert len(pids) == 2, "router never reported its workers"
            router.kill()
            router.wait(timeout=30)
            deadline = time.monotonic() + 2.5
            while any(_running(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    "orphaned workers outlived several idle polls"
                )
                time.sleep(0.05)
        finally:
            if router.poll() is None:
                router.kill()
                router.wait(timeout=30)
            router.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestHttpFrontend:
    def test_healthz_and_stats_aggregate_workers(self):
        from repro.frontend.server import serve_in_thread

        table = make_medium_table()
        service = make_cluster("memory", table)
        service.start()
        server, thread = serve_in_thread(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            def get(path: str) -> dict:
                with urllib.request.urlopen(base + path, timeout=30) as response:
                    return json.loads(response.read())

            def post(path: str, payload: dict) -> dict:
                request = urllib.request.Request(
                    base + path,
                    data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    return json.loads(response.read())

            health = get("/healthz")
            assert health["status"] == "ok"
            assert health["mode"] == "processes"
            assert [w["alive"] for w in health["workers"]] == [True, True]

            payload = {"sql": "SELECT * FROM orders WHERE product = 'p0'"}
            first = post("/recommend", payload)
            second = post("/recommend", payload)
            assert first["recommendations"] == second["recommendations"]

            stats = get("/stats")
            assert stats["requests"] == 2
            assert stats["executions"] == 1
            assert stats["cluster"]["started"] is True
            assert stats["cluster"]["live_workers"] == 2
            # One execution crossed from a worker; the second request was
            # the router LRU's hit and never left the router.
            assert stats["cluster"]["executed_total"] == 1
            assert stats["result_cache_hits"] == 1
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            service.close()


class TestServeGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """``seedb serve --workers 2`` must drain on SIGTERM: stop
        accepting, join every worker, close replicas, exit 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
        )
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.frontend.cli",
                "serve",
                "--dataset",
                "store_orders",
                "--workers",
                "2",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(tmp_path),  # any artifacts land in a throwaway dir
        )
        try:
            banner = process.stdout.readline()
            assert "seedb serving" in banner
            assert "2 worker processes" in banner
            process.stdout.readline()  # endpoints line
            # The server is accepting; now ask it to stop.
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0, f"serve exited {process.returncode}: {out}"
        assert "received SIGTERM, draining" in out
        assert "drained; workers joined; backends closed" in out
