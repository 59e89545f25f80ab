"""Unit tests: every step shape hands the scorer identical view blocks.

Strategy: compute ground truth with independent queries, then assert each
sharing strategy (flag, grouping sets, rollup; with and without flag
combining) yields the same target and comparison series per view, and
that the step runner returns the same blocks, in step order, on one
thread or four — joining every claimed step before a failure or a
cancel surfaces.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.db.expressions import col
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.model.view import ViewSpec
from repro.optimizer.parallel import run_steps
from repro.optimizer.plan import (
    PLAN_KINDS,
    ExecutionPlan,
    ExecutionStep,
    GroupByCombining,
    Planner,
    PlannerConfig,
    ViewGroup,
)
from repro.util.deadline import CancelToken, cancel_scope
from repro.util.errors import Cancelled

from tests.conftest import assert_same_views, view_rows

VIEWS = (
    ViewSpec("store", "amount", "sum"),
    ViewSpec("store", "amount", "avg"),
    ViewSpec("store", "profit", "var"),
    ViewSpec("store", None, "count"),
)
PRODUCT_VIEWS = (
    ViewSpec("product", "amount", "min"),
    ViewSpec("product", "amount", "max"),
)


@pytest.fixture
def predicate():
    return col("product") == "Laserwave"


@pytest.fixture
def ground_truth(memory_backend, predicate):
    steps = [
        ExecutionStep(
            "sales", predicate, (ViewGroup(v.dimension, (v,)),), combine_flag=False
        )
        for v in VIEWS + PRODUCT_VIEWS
    ]
    return ExecutionPlan(steps).run(memory_backend)


class TestFlagSides:
    def test_matches_ground_truth(self, memory_backend, predicate, ground_truth):
        steps = [
            ExecutionStep("sales", predicate, (ViewGroup("store", VIEWS),)),
            ExecutionStep("sales", predicate, (ViewGroup("product", PRODUCT_VIEWS),)),
        ]
        actual = ExecutionPlan(steps).run(memory_backend)
        assert_same_views(actual, ground_truth)

    def test_none_predicate_target_equals_comparison(self, memory_backend):
        view = ViewSpec("store", "amount", "sum")
        step = ExecutionStep("sales", None, (ViewGroup("store", (view,)),))
        (block,) = step.run(memory_backend)
        np.testing.assert_allclose(block.target, block.comparison)

    def test_all_null_target_partition_keeps_the_comparison_mass(self):
        """SQL SUM over a partition whose measure is all NULL is NULL; the
        flag merge treats it as the identity, so the combined step's
        comparison equals the whole-table query's."""
        table = Table.from_columns(
            "t",
            {
                "d": ["a", "a", "b", "b"],
                "s": ["x", "y", "x", "y"],
                "m": [float("nan"), 1.0, 2.0, 3.0],
            },
            roles={
                "d": AttributeRole.DIMENSION,
                "s": AttributeRole.DIMENSION,
                "m": AttributeRole.MEASURE,
            },
        )
        view = ViewSpec("d", "m", "sum")
        backend = SqliteBackend()
        try:
            backend.register_table(table)

            def run(combine_flag):
                step = ExecutionStep(
                    "t", col("s") == "x", (ViewGroup("d", (view,)),),
                    combine_flag=combine_flag,
                )
                return step.run(backend)

            flag, separate = run(True), run(False)
        finally:
            backend.close()
        assert_same_views(flag, separate)
        groups, target, comparison = view_rows(flag)[view]
        assert groups == ["a", "b"]
        assert np.isnan(target[0]) and target[1] == 2.0
        assert comparison.tolist() == [1.0, 5.0]


class TestGroupingSetsSharing:
    @pytest.mark.parametrize("combine_flag", [True, False])
    def test_matches_ground_truth(
        self, memory_backend, predicate, ground_truth, combine_flag
    ):
        step = ExecutionStep(
            "sales",
            predicate,
            (ViewGroup("store", VIEWS), ViewGroup("product", PRODUCT_VIEWS)),
            GroupByCombining.GROUPING_SETS,
            combine_flag=combine_flag,
        )
        actual = ExecutionPlan([step]).run(memory_backend)
        assert_same_views(actual, ground_truth)

    def test_works_on_sqlite_fallback(self, sqlite_backend, predicate, ground_truth):
        step = ExecutionStep(
            "sales",
            predicate,
            (ViewGroup("store", VIEWS), ViewGroup("product", PRODUCT_VIEWS)),
            GroupByCombining.GROUPING_SETS,
            combine_flag=True,
        )
        actual = ExecutionPlan([step]).run(sqlite_backend)
        assert_same_views(actual, ground_truth)


class TestRollupSharing:
    @pytest.mark.parametrize("combine_flag", [True, False])
    def test_matches_ground_truth(
        self, memory_backend, predicate, ground_truth, combine_flag
    ):
        step = ExecutionStep(
            "sales",
            predicate,
            (ViewGroup("store", VIEWS), ViewGroup("product", PRODUCT_VIEWS)),
            GroupByCombining.ROLLUP,
            combine_flag=combine_flag,
        )
        actual = ExecutionPlan([step]).run(memory_backend)
        assert_same_views(actual, ground_truth)

    def test_rollup_on_sqlite(self, sqlite_backend, predicate, ground_truth):
        step = ExecutionStep(
            "sales",
            predicate,
            (ViewGroup("store", VIEWS), ViewGroup("product", PRODUCT_VIEWS)),
            GroupByCombining.ROLLUP,
            combine_flag=True,
        )
        actual = ExecutionPlan([step]).run(sqlite_backend)
        assert_same_views(actual, ground_truth)


MONTH_VIEWS = (
    ViewSpec("month", "amount", "sum"),
    ViewSpec("month", "profit", "avg"),
)


def block_bits(blocks):
    """Each block as comparable bytes: equal only when bit-identical."""
    return [
        (
            block.dimension,
            block.specs,
            block.groups,
            block.target.dtype.str,
            block.target.shape,
            block.target.tobytes(),
            block.comparison.tobytes(),
        )
        for block in blocks
    ]


class InFlightBackend(MemoryBackend):
    """Counts concurrent ``execute`` calls; each call holds for 0.1 s,
    and the one grouping by ``month`` raises once ``barrier`` calls are in
    flight — or, given a ``cancel`` token, completes and then cancels it,
    so the step itself succeeds."""

    def __init__(self, barrier, cancel=None):
        super().__init__()
        self.barrier, self.cancel = barrier, cancel
        self.lock = threading.Condition()
        self.in_flight = 0
        self.max_in_flight = 0
        self.calls = 0

    def execute(self, query):
        with self.lock:
            self.in_flight += 1
            self.calls += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.lock.notify_all()
        try:
            if "month" in query.key_names:
                with self.lock:
                    self.lock.wait_for(
                        lambda: self.in_flight >= self.barrier, timeout=5
                    )
                if self.cancel is None:
                    raise RuntimeError("step failed")
                result = super().execute(query)
                self.cancel.cancel()
                return result
            result = super().execute(query)
            time.sleep(0.1)  # past the backend's own checkpoint
            return result
        finally:
            with self.lock:
                self.in_flight -= 1


def unshared_steps(predicate, views):
    return [
        ExecutionStep("sales", predicate, (ViewGroup(v.dimension, (v,)),))
        for v in views
    ]


class TestRunSteps:
    def test_results_identical_to_sequential(
        self, memory_backend, predicate, ground_truth
    ):
        steps = [
            ExecutionStep("sales", predicate, (ViewGroup("store", VIEWS),)),
            ExecutionStep("sales", predicate, (ViewGroup("product", PRODUCT_VIEWS),)),
        ]
        blocks = run_steps(steps, memory_backend, n_workers=4)
        assert_same_views(blocks, ground_truth)

    def test_single_worker_sequential_path(self, memory_backend, predicate):
        view = ViewSpec("store", "amount", "sum")
        plan = ExecutionPlan(
            [ExecutionStep("sales", predicate, (ViewGroup("store", (view,)),))]
        )
        assert view in view_rows(plan.run(memory_backend, n_workers=1))

    @pytest.mark.parametrize("kind", list(PLAN_KINDS))
    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_every_plan_kind_bit_identical_across_worker_counts(
        self, kind, backend_name, memory_backend, sqlite_backend, predicate
    ):
        backend = memory_backend if backend_name == "memory" else sqlite_backend
        views = list(VIEWS + PRODUCT_VIEWS + MONTH_VIEWS)
        plan = Planner(
            PlannerConfig(groupby_combining=kind, max_dims_per_query=2)
        ).plan(
            views,
            "sales",
            predicate,
            {"store": 4, "product": 2, "month": 4},
        )
        assert len(plan.steps) >= 2
        sequential = plan.run(backend, n_workers=1)
        parallel = plan.run(backend, n_workers=4)
        assert block_bits(parallel) == block_bits(sequential)
        # Step order: the blocks follow the steps, group by group.
        expected = [group.dimension for step in plan.steps for group in step.groups]
        assert [block.dimension for block in parallel] == expected

    def test_failure_surfaces_after_every_claimed_step_returns(
        self, sales_table, predicate
    ):
        backend = InFlightBackend(barrier=4)
        backend.register_table(sales_table)
        steps = unshared_steps(predicate, MONTH_VIEWS[:1] + VIEWS + PRODUCT_VIEWS)
        with pytest.raises(RuntimeError, match="step failed"):
            try:
                run_steps(steps, backend, n_workers=4)
            finally:
                in_flight_at_raise = backend.in_flight
        assert in_flight_at_raise == 0
        assert backend.max_in_flight == 4
        # The three steps in flight beside the failure finish; none after.
        assert backend.calls == 4

    def test_claim_counter_under_contention(self):
        """More claimers than cores with a tiny switch interval: every step
        runs exactly once and its block lands in its own slot."""

        class Step:
            def __init__(self, index):
                self.index = index

            def run(self, backend):
                runs.append(self.index)
                return [self.index]

        runs = []
        steps = [Step(index) for index in range(200)]
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: outcome.append(run_steps(steps, None, n_workers=8))
            )
            runner.start()
            runner.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert outcome == [list(range(200))]
        assert sorted(runs) == list(range(200))

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_cancel_inside_a_step_raises_without_partial_blocks(
        self, sales_table, predicate, n_workers
    ):
        token = CancelToken()
        backend = InFlightBackend(barrier=n_workers, cancel=token)
        backend.register_table(sales_table)
        steps = unshared_steps(predicate, MONTH_VIEWS[:1] + VIEWS + PRODUCT_VIEWS)
        outcome = []
        with cancel_scope(token), pytest.raises(Cancelled):
            outcome.append(run_steps(steps, backend, n_workers=n_workers))
        assert outcome == []
        assert backend.in_flight == 0
        # Every claimed step succeeded; only the token stopped the run,
        # and no step was claimed after it.
        assert backend.calls == n_workers
