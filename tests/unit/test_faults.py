"""Unit tests: the deterministic fault-injection harness."""

import time

import pytest

from repro.testing.faults import (
    FaultInjected,
    FaultInjector,
    FaultSpec,
    fault_point,
    install_injector,
    uninstall_injector,
)


@pytest.fixture(autouse=True)
def clean_injector():
    yield
    uninstall_injector()


class TestFaultPoint:
    def test_no_injector_is_a_noop(self):
        assert fault_point("backend.execute") == frozenset()

    def test_error_action_raises(self):
        install_injector(FaultInjector([FaultSpec("p", "error")]))
        with pytest.raises(FaultInjected, match="injected fault at 'p'"):
            fault_point("p")

    def test_custom_error_type(self):
        class Boom(FaultInjected):
            pass

        install_injector(FaultInjector([FaultSpec("p", "error", error_type=Boom)]))
        with pytest.raises(Boom):
            fault_point("p")

    def test_stall_action_sleeps(self):
        install_injector(
            FaultInjector([FaultSpec("p", "stall", delay_s=0.05, limit=1)])
        )
        start = time.monotonic()
        assert fault_point("p") == {"stall"}
        assert time.monotonic() - start >= 0.05
        # limit=1: the second hit passes through instantly
        start = time.monotonic()
        assert fault_point("p") == set()
        assert time.monotonic() - start < 0.05

    def test_points_are_independent(self):
        install_injector(FaultInjector([FaultSpec("a", "error")]))
        assert fault_point("b") == set()
        with pytest.raises(FaultInjected):
            fault_point("a")

    def test_uninstall_restores_noop(self):
        install_injector(FaultInjector([FaultSpec("p", "error")]))
        uninstall_injector()
        assert fault_point("p") == frozenset()


class TestSchedules:
    def test_after_skips_first_hits(self):
        install_injector(FaultInjector([FaultSpec("p", "error", after=2)]))
        fault_point("p")
        fault_point("p")
        with pytest.raises(FaultInjected):
            fault_point("p")

    def test_limit_caps_firings(self):
        injector = install_injector(
            FaultInjector([FaultSpec("p", "stall", delay_s=0, limit=2)])
        )
        results = [fault_point("p") for _ in range(5)]
        assert [("stall" in r) for r in results] == [True, True, False, False, False]
        assert injector.fired("p") == 2

    def test_probability_is_seeded_and_deterministic(self):
        def draw(seed):
            injector = FaultInjector(
                [FaultSpec("p", "stall", delay_s=0, probability=0.5)], seed=seed
            )
            return [("stall" in injector.evaluate("p")) for _ in range(32)]

        fired = draw(7)
        assert fired == draw(7)  # same seed, same schedule
        assert any(fired) and not all(fired)  # p=0.5 actually mixes
        assert fired != draw(8)  # different seed, different schedule

    def test_fired_counts_across_points(self):
        injector = install_injector(
            FaultInjector(
                [
                    FaultSpec("a", "stall", delay_s=0),
                    FaultSpec("b", "stall", delay_s=0),
                ]
            )
        )
        fault_point("a")
        fault_point("a")
        fault_point("b")
        assert injector.fired("a") == 2
        assert injector.fired("b") == 1
        assert injector.fired() == 3

    def test_multiple_specs_at_one_point(self):
        install_injector(
            FaultInjector(
                [
                    FaultSpec("p", "hang", delay_s=0.0),
                    FaultSpec("p", "stall", delay_s=0.0),
                ]
            )
        )
        assert fault_point("p") == {"hang", "stall"}
