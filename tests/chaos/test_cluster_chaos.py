"""Chaos suite: process-tier faults — worker kills, hangs, and shm tears.

The injector is installed in the *parent* before ``start()``; with the
``fork`` start method every worker (including monitor respawns) inherits
it, each with its own private copy of the schedule state. The invariant
is the same as the in-process suite's: bounded termination with a result
or a typed error — a SIGKILLed or wedged worker must never strand the
waiting client.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.service import ClusterTimeouts, single_backend_cluster
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    install_injector,
    uninstall_injector,
)
from repro.util.errors import DeadlineExceeded, WorkerLost

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos injection reaches workers by fork inheritance",
)

QUERY = RowSelectQuery("sales", col("product") == "Laserwave")

#: Fast teardown: a wedged worker should cost ~a second at close, not the
#: production-grade patience of the default join/terminate ladder.
FAST_TIMEOUTS = ClusterTimeouts(
    worker_join_s=1.0,
    worker_terminate_s=1.0,
    worker_kill_s=1.0,
    dispatch_grace_s=0.5,
)


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    uninstall_injector()


def make_cluster(sales_table, **kwargs):
    backend = MemoryBackend()
    backend.register_table(sales_table)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("result_cache_size", 0)
    kwargs.setdefault("timeouts", FAST_TIMEOUTS)
    return single_backend_cluster(
        backend, SeeDBConfig(k=3), start_method="fork", **kwargs
    )


class TestWorkerDeath:
    def test_dying_workers_yield_typed_worker_lost(self, sales_table):
        """Every worker dies mid-request, every retry dies too: the client
        gets ``WorkerLost`` within the retry budget — not a hang, not a
        raw ``EOFError`` off a torn pipe."""
        install_injector(FaultInjector([FaultSpec("worker.request", "die")]))
        service = make_cluster(sales_table)
        try:
            service.start()
            start = time.monotonic()
            with pytest.raises(WorkerLost, match="died mid-request"):
                service.recommend(RecommendationRequest(QUERY))
            assert time.monotonic() - start < 60
            assert service.stats.failed == 1
        finally:
            service.close()

    def test_crash_loop_ejects_shard_and_degrades_health(self, sales_table):
        """One shard crash-loops (SIGKILL on every respawn) until its
        respawn budget is spent: it is ejected from the ring for good,
        ``health()`` turns degraded with the ejection count, and the
        surviving sibling keeps serving the whole keyspace correctly."""
        service = make_cluster(sales_table, workers=2)
        try:
            service.start()
            victim = service.health()["workers"][0]["id"]
            killed_pids = set()
            deadline = time.monotonic() + 120
            while service.health()["ejected_workers"] == 0:
                assert time.monotonic() < deadline, (
                    "crash loop never ejected the worker"
                )
                workers = {w["id"]: w for w in service.health()["workers"]}
                handle = workers.get(victim)
                if handle and handle["alive"] and handle["pid"] not in killed_pids:
                    killed_pids.add(handle["pid"])
                    os.kill(handle["pid"], signal.SIGKILL)
                time.sleep(0.02)
            # The sibling was never touched: the pool is degraded, not down.
            health = None
            poll_deadline = time.monotonic() + 10
            while time.monotonic() < poll_deadline:
                health = service.health()
                if health["status"] == "degraded":
                    break
                time.sleep(0.05)
            assert health is not None and health["status"] == "degraded", health
            assert health["ejected_workers"] >= 1
            assert victim not in {w["id"] for w in health["workers"]}
            assert service.snapshot()["cluster"]["ejections"] >= 1
            # The survivor inherited the ejected shard's keyspace.
            result = service.recommend(RecommendationRequest(QUERY))
            assert len(result.recommendations) > 0
            assert service.stats.failed == 0
        finally:
            service.close()


class TestWorkerHang:
    def test_wedged_worker_hits_deadline_not_hang(self, sales_table):
        """A worker that stalls far past the request deadline: the router
        gives up at ``deadline + dispatch_grace`` with a typed
        ``DeadlineExceeded`` instead of waiting out the stall."""
        install_injector(
            FaultInjector(
                [FaultSpec("worker.request", "stall", delay_s=30.0, limit=1)]
            )
        )
        service = make_cluster(sales_table)
        try:
            service.start()
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                service.recommend(
                    RecommendationRequest(QUERY, options={"deadline_ms": 300})
                )
            elapsed = time.monotonic() - start
            assert elapsed < 10, f"gave up after {elapsed:.1f}s, not at deadline"
            assert service.stats.deadline_exceeded == 1
        finally:
            service.close()


class TestShmTear:
    def test_torn_shm_write_falls_back_in_band(self, sales_table):
        """Every shared-memory publish tears mid-write: the worker ships
        the encoded result in-band instead, the client's answer is
        bit-identical to a serial run, and no half-written segment is
        ever visible to readers."""
        backend = MemoryBackend()
        backend.register_table(sales_table)
        expected = SeeDB(backend, SeeDBConfig(k=3)).recommend(
            RecommendationRequest(QUERY)
        )

        install_injector(FaultInjector([FaultSpec("shm.put", "tear")]))
        service = make_cluster(sales_table, result_cache_size=256)
        try:
            result = service.recommend(RecommendationRequest(QUERY))
            assert [v.spec for v in result.recommendations] == [
                v.spec for v in expected.recommendations
            ]
            assert [v.utility for v in result.recommendations] == [
                v.utility for v in expected.recommendations
            ]
            assert service.stats.failed == 0
            # The tear actually fired: the worker's counter proves the
            # degraded path was taken.
            worker_stats = service.snapshot()["cluster"]["worker_stats"]
            assert worker_stats["w0"]["shm"]["put_failures"] >= 1
            # A repeat of the request still serves the same bits — the
            # torn segment never reached a reader.
            repeat = service.recommend(RecommendationRequest(QUERY))
            assert [v.spec for v in repeat.recommendations] == [
                v.spec for v in expected.recommendations
            ]
        finally:
            service.close()
