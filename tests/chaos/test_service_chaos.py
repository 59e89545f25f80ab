"""Chaos suite: the lifecycle invariant on the in-process serving tier.

The bar (request-lifecycle hardening): under ANY injected fault schedule,
every request terminates within ``deadline + grace`` with a full result,
a partial result, or a *typed* library error — never a hang, never a raw
``TypeError``/``KeyError`` escaping the service boundary. The schedules
below are seeded and deterministic; add new ones freely, the invariant
checker does not care what the schedule is.
"""

import time
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

from repro.api import RecommendationRequest
from repro.core.result import RecommendationResult
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.service import single_backend_service
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    install_injector,
    uninstall_injector,
)
from repro.util.errors import Overloaded, ReproError

QUERY = RowSelectQuery("sales", col("product") == "Laserwave")

#: Slack on top of the request deadline before a test declares "hang".
#: Generous on purpose — CI boxes are slow; the invariant is *bounded
#: termination*, not latency.
GRACE_S = 20.0


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    uninstall_injector()


def outcome_of(future, bound_s: float):
    """Resolve a submitted request into its terminal outcome.

    A result (full or partial) and a typed library error both satisfy the
    invariant; exceeding ``bound_s`` or any non-``ReproError`` exception
    is a violation.
    """
    try:
        return future.result(timeout=bound_s)
    except ReproError as exc:
        return exc
    except FutureTimeout:
        pytest.fail(f"request hung past its {bound_s:.0f}s termination bound")


def assert_terminal(outcome) -> None:
    assert isinstance(outcome, (RecommendationResult, ReproError)), (
        f"untyped outcome escaped the service: {outcome!r}"
    )


# Named, seeded fault schedules. "die" is deliberately absent here — that
# action kills the *process* and belongs to the cluster chaos suite.
SCHEDULES = {
    "stall-backend": [FaultSpec("backend.execute", "stall", delay_s=0.05)],
    "stall-rounds": [FaultSpec("engine.round", "stall", delay_s=0.05)],
    "error-backend": [FaultSpec("backend.execute", "error")],
    "error-rounds": [FaultSpec("engine.round", "error", after=1)],
    "flaky-mix": [
        FaultSpec("backend.execute", "stall", delay_s=0.05, probability=0.5),
        FaultSpec("backend.execute", "error", probability=0.3),
        FaultSpec("engine.round", "stall", delay_s=0.05, probability=0.5),
        FaultSpec("engine.round", "error", probability=0.2),
    ],
}


class TestLifecycleInvariant:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_request_terminates(self, memory_backend, schedule, seed):
        install_injector(FaultInjector(SCHEDULES[schedule], seed=seed))
        deadline_ms = 500
        with single_backend_service(
            memory_backend, max_workers=4, result_cache_size=0
        ) as service:
            futures = [
                service.submit(
                    RecommendationRequest(
                        QUERY, k=k, options={"deadline_ms": deadline_ms, "n_phases": 4}
                    )
                )
                for k in range(1, 7)
            ]
            bound = deadline_ms / 1000.0 + GRACE_S
            outcomes = [outcome_of(future, bound) for future in futures]
        for outcome in outcomes:
            assert_terminal(outcome)
        # The ledger balances: nothing admitted is unaccounted for.
        stats = service.stats
        assert stats.completed + stats.failed == stats.executions

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_streams_terminate_under_flaky_mix(self, memory_backend, seed):
        install_injector(FaultInjector(SCHEDULES["flaky-mix"], seed=seed))
        with single_backend_service(
            memory_backend, result_cache_size=0
        ) as service:
            for k in range(1, 4):
                start = time.monotonic()
                stream = service.recommend_stream(
                    RecommendationRequest(
                        QUERY, k=k, options={"deadline_ms": 500, "n_phases": 4}
                    )
                )
                try:
                    rounds = list(stream)
                except ReproError:
                    rounds = []  # a typed failure is a legal terminal state
                assert time.monotonic() - start <= 0.5 + GRACE_S
                if rounds:
                    assert rounds[-1].is_final
                    assert rounds[-1].result is not None


class TestSaturation:
    def test_burst_sheds_typed_and_recovers(self, memory_backend):
        """Saturate a 1-slot, 1-deep service with slow requests: every
        submission either runs to a terminal outcome or is shed with
        ``Overloaded`` — and once the burst drains, the service is
        healthy again (no poisoned slots, no stuck admissions)."""
        install_injector(
            FaultInjector([FaultSpec("backend.execute", "stall", delay_s=0.1)])
        )
        service = single_backend_service(
            memory_backend, max_workers=1, max_queue_depth=1, result_cache_size=0
        )
        try:
            admitted, shed = [], 0
            for k in range(1, 8):
                try:
                    admitted.append(service.submit(RecommendationRequest(QUERY, k=k)))
                except Overloaded as exc:
                    shed += 1
                    assert exc.retry_after is not None and exc.retry_after > 0
            assert shed >= 1, "burst never tripped admission control"
            for future in admitted:
                assert_terminal(outcome_of(future, GRACE_S))
            assert service.stats.rejected == shed
            # Recovery: with the faults gone the same service serves.
            uninstall_injector()
            result = service.recommend(RecommendationRequest(QUERY, k=2))
            assert result.partial is False
            assert len(result.recommendations) > 0
        finally:
            service.close()
