"""Unit tests: request lifecycle — deadlines, admission control, stream
cancellation, partial results — at the SeeDBService layer."""

import threading
import time

import pytest

from repro.api import RecommendationRequest
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.service import single_backend_service
from repro.testing.faults import (
    FaultInjected,
    FaultInjector,
    FaultSpec,
    install_injector,
    uninstall_injector,
)
from repro.util.errors import Cancelled, DeadlineExceeded, Overloaded, QueryError

QUERY = RowSelectQuery("sales", col("product") == "Laserwave")


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    uninstall_injector()


def stalled_service(backend, **kwargs):
    """A service whose executions block until ``release`` is set.

    Returns ``(service, release, started)``: ``started`` is set once the
    first execution reaches the engine (i.e. occupies its admission slot
    on a worker thread).
    """
    kwargs.setdefault("result_cache_size", 0)
    service = single_backend_service(backend, **kwargs)
    engine = service.engine()
    release, started = threading.Event(), threading.Event()
    inner = engine.recommend

    def slow_recommend(resolved, **inner_kwargs):
        started.set()
        release.wait(timeout=10)
        return inner(resolved, **inner_kwargs)

    engine.recommend = slow_recommend
    return service, release, started


class TestDeadlines:
    def test_deadline_ms_travels_through_submit(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            result = service.recommend(
                RecommendationRequest(QUERY, options={"deadline_ms": 60_000})
            )
            assert result.partial is False
            assert len(result.recommendations) > 0

    def test_exhausted_budget_raises_deadline_exceeded(self, memory_backend):
        service, release, started = stalled_service(memory_backend)
        release.set()  # don't block, just delay via the injected stall
        install_injector(
            FaultInjector([FaultSpec("backend.execute", "stall", delay_s=0.1)])
        )
        try:
            future = service.submit(
                RecommendationRequest(QUERY, options={"deadline_ms": 30})
            )
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
            assert service.stats.deadline_exceeded == 1
            assert service.stats.failed == 1
        finally:
            service.close()

    def test_deadline_in_coalescing_key(self, memory_backend):
        """Different budgets must not share one execution: a joiner with a
        fat budget must never inherit a starved execution's failure."""
        service, release, started = stalled_service(memory_backend, max_workers=4)
        try:
            first = service.submit(
                RecommendationRequest(QUERY, options={"deadline_ms": 60_000})
            )
            assert started.wait(timeout=10)
            second = service.submit(
                RecommendationRequest(QUERY, options={"deadline_ms": 120_000})
            )
            third = service.submit(
                RecommendationRequest(QUERY, options={"deadline_ms": 60_000})
            )
            assert second is not first  # different budget: own execution
            assert third is first  # same budget: coalesced
            release.set()
            first.result(timeout=10)
            second.result(timeout=10)
        finally:
            release.set()
            service.close()


class TestAdmissionControl:
    def test_queue_full_sheds_with_retry_after(self, memory_backend):
        service, release, started = stalled_service(
            memory_backend, max_workers=1, max_queue_depth=0
        )
        try:
            first = service.submit(RecommendationRequest(QUERY, k=2))
            assert started.wait(timeout=10)
            with pytest.raises(Overloaded) as excinfo:
                service.submit(RecommendationRequest(QUERY, k=3))
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
            assert excinfo.value.http_status == 429
            assert service.stats.rejected == 1
            release.set()
            first.result(timeout=10)
            # The slot was released: the same request is admitted now.
            service.recommend(RecommendationRequest(QUERY, k=3))
        finally:
            release.set()
            service.close()

    def test_backend_inflight_cap(self, memory_backend):
        service, release, started = stalled_service(
            memory_backend, max_workers=4, backend_inflight_limit=1
        )
        try:
            first = service.submit(RecommendationRequest(QUERY, k=2))
            assert started.wait(timeout=10)
            with pytest.raises(Overloaded, match="in-flight cap"):
                service.submit(RecommendationRequest(QUERY, k=3))
            release.set()
            first.result(timeout=10)
        finally:
            release.set()
            service.close()

    def test_coalesced_joiners_are_never_shed(self, memory_backend):
        service, release, started = stalled_service(
            memory_backend, max_workers=1, max_queue_depth=0
        )
        try:
            first = service.submit(RecommendationRequest(QUERY, k=2))
            assert started.wait(timeout=10)
            # identical: no new slot
            joiner = service.submit(RecommendationRequest(QUERY, k=2))
            assert joiner is first
            assert service.stats.rejected == 0
            release.set()
            first.result(timeout=10)
        finally:
            release.set()
            service.close()

    def test_cache_hits_are_never_shed(self, memory_backend):
        service = single_backend_service(
            memory_backend, max_workers=1, max_queue_depth=0
        )
        engine = service.engine()
        try:
            # populate the cache
            warm = service.recommend(RecommendationRequest(QUERY, k=2))
            release, started = threading.Event(), threading.Event()
            inner = engine.recommend

            def slow_recommend(resolved, **kwargs):
                started.set()
                release.wait(timeout=10)
                return inner(resolved, **kwargs)

            engine.recommend = slow_recommend
            # saturate the only slot
            blocker = service.submit(RecommendationRequest(QUERY, k=3))
            assert started.wait(timeout=10)
            # cache hit: admitted free
            cached = service.submit(RecommendationRequest(QUERY, k=2))
            assert cached.result(timeout=1) is warm
            release.set()
            blocker.result(timeout=10)
        finally:
            service.close()


class TestStreamLifecycle:
    def stall_rounds(self, delay_s=0.2):
        """Slow every incremental round after the first: round one streams
        immediately, later rounds give the test a window to act in."""
        install_injector(
            FaultInjector(
                [FaultSpec("engine.round", "stall", delay_s=delay_s, after=1)]
            )
        )

    def drain_in_flight(self, service, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if service.in_flight == 0:
                return True
            time.sleep(0.01)
        return False

    def test_deadline_mid_stream_degrades_to_partial(self, memory_backend):
        self.stall_rounds(delay_s=0.3)
        with single_backend_service(memory_backend) as service:
            rounds = list(
                service.recommend_stream(
                    RecommendationRequest(
                        QUERY, options={"deadline_ms": 150, "n_phases": 4}
                    )
                )
            )
            final = rounds[-1]
            assert final.is_final
            assert final.result is not None
            assert final.result.partial is True
            assert final.result.partial_epsilon is not None
            assert final.result.partial_epsilon > 0
            assert final.epsilon == final.result.partial_epsilon
            assert len(final.recommendations) > 0  # best current top-k
            assert service.stats.partial_results == 1
            assert service.stats.deadline_exceeded == 0  # degraded, not failed

    def test_partial_results_are_not_cached(self, memory_backend):
        self.stall_rounds(delay_s=0.3)
        with single_backend_service(memory_backend) as service:
            rounds = list(
                service.recommend_stream(
                    RecommendationRequest(
                        QUERY, options={"deadline_ms": 150, "n_phases": 4}
                    )
                )
            )
            assert rounds[-1].result.partial is True
            uninstall_injector()  # next run is healthy
            full = service.recommend(
                RecommendationRequest(QUERY, options={"n_phases": 4})
            )
            assert full.partial is False
            assert service.stats.result_cache_hits == 0

    def test_last_subscriber_disconnect_cancels_execution(self, memory_backend):
        self.stall_rounds(delay_s=0.2)
        with single_backend_service(memory_backend) as service:
            stream = service.recommend_stream(
                RecommendationRequest(QUERY, options={"n_phases": 6})
            )
            first = next(stream)
            assert first.round == 1
            stream.close()  # last subscriber leaves mid-stream
            assert self.drain_in_flight(service)
            assert service.stats.cancelled == 1
            assert service.stats.completed == 0

    def test_sibling_subscriber_survives_one_disconnect(self, memory_backend):
        self.stall_rounds(delay_s=0.2)
        with single_backend_service(memory_backend) as service:
            leaver = service.recommend_stream(
                RecommendationRequest(QUERY, options={"n_phases": 4})
            )
            next(leaver)
            stayer = service.recommend_stream(
                RecommendationRequest(QUERY, options={"n_phases": 4})
            )
            assert service.stats.coalesced == 1  # one shared execution
            leaver.close()  # refcount 2 -> 1: no cancellation
            rounds = list(stayer)
            assert rounds[-1].is_final
            assert rounds[-1].result is not None
            assert rounds[-1].result.partial is False
            assert service.stats.cancelled == 0
            assert service.stats.completed == 1


COUNTERS = (
    "requests",
    "executions",
    "completed",
    "failed",
    "deadline_exceeded",
    "cancelled",
    "rejected",
)

#: outcome -> (error the caller sees, counters that move by exactly one).
OUTCOMES = {
    "success": (None, {"requests", "executions", "completed"}),
    "engine_error": (FaultInjected, {"requests", "executions", "failed"}),
    "deadline_exceeded": (
        DeadlineExceeded,
        {"requests", "executions", "failed", "deadline_exceeded"},
    ),
    "cancelled": (Cancelled, {"requests", "executions", "failed", "cancelled"}),
    "pool_closed": (QueryError, {"requests", "executions", "failed"}),
    "overloaded": (Overloaded, {"requests", "rejected"}),
}


class TestLifecycleParity:
    """Blocking requests and streams share one launch/settle pair: every
    outcome moves the same counters and returns the admission slot."""

    @pytest.mark.parametrize("outcome", OUTCOMES)
    @pytest.mark.parametrize("path", ["submit", "recommend_stream"])
    def test_same_accounting_on_both_paths(self, memory_backend, path, outcome):
        error, moved = OUTCOMES[outcome]
        service, release, started = stalled_service(
            memory_backend,
            max_workers=1,
            max_queue_depth=0 if outcome == "overloaded" else None,
        )
        blocker = None
        if outcome == "overloaded":
            # takes the only slot
            blocker = service.submit(RecommendationRequest(QUERY, k=2))
            assert started.wait(timeout=10)
        else:
            release.set()
        if outcome == "pool_closed":
            service._pool.shutdown(wait=True)  # close() wins the race
        elif error in (FaultInjected, DeadlineExceeded, Cancelled):
            # Blocking runs reach the backend seam, incremental rounds
            # (streams) the engine one: arm both with the same error.
            install_injector(
                FaultInjector(
                    [
                        FaultSpec(point, "error", error_type=error)
                        for point in ("backend.execute", "engine.round")
                    ]
                )
            )

        def drive():
            if path == "submit":
                return service.submit(RecommendationRequest(QUERY)).result(timeout=10)
            return list(service.recommend_stream(RecommendationRequest(QUERY)))

        try:
            before = service.snapshot()
            if error is None:
                drive()
            else:
                with pytest.raises(error):
                    drive()
            after = service.snapshot()
            assert {
                name: after[name] - before[name] for name in COUNTERS
            } == {name: int(name in moved) for name in COUNTERS}
            release.set()
            if blocker is not None:
                blocker.result(timeout=10)
            settled = service.snapshot()
            assert settled["executing"] == 0
            assert settled["in_flight"] == 0
        finally:
            release.set()
            service.close()
