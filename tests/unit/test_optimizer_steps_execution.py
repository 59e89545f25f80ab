"""Unit tests: every step shape produces identical per-view raw data.

Strategy: compute ground truth with independent queries, then assert each
sharing strategy (flag, grouping sets, rollup; with and without flag
combining) extracts the same target and comparison series.
"""

import numpy as np
import pytest

from repro.db.expressions import col
from repro.model.view import ViewSpec
from repro.optimizer.parallel import ParallelExecutor
from repro.optimizer.plan import (
    ExecutionPlan,
    ExecutionStep,
    GroupByCombining,
    ViewGroup,
)

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


def assert_same_raw(actual, expected):
    assert set(actual) == set(expected)
    for spec in expected:
        a, e = actual[spec], expected[spec]
        assert a.target_keys == e.target_keys, spec.label
        assert a.comparison_keys == e.comparison_keys, spec.label
        np.testing.assert_allclose(
            a.target_values, e.target_values, equal_nan=True, err_msg=spec.label
        )
        np.testing.assert_allclose(
            a.comparison_values,
            e.comparison_values,
            equal_nan=True,
            err_msg=spec.label,
        )


class TestFlagSides:
    def test_matches_ground_truth(self, memory_backend, predicate, ground_truth):
        steps = [
            ExecutionStep("sales", predicate, (ViewGroup("store", VIEWS),)),
            ExecutionStep("sales", predicate, (ViewGroup("product", PRODUCT_VIEWS),)),
        ]
        actual = ExecutionPlan(steps).run(memory_backend)
        assert_same_raw(actual, ground_truth)

    def test_none_predicate_target_equals_comparison(self, memory_backend):
        view = ViewSpec("store", "amount", "sum")
        step = ExecutionStep("sales", None, (ViewGroup("store", (view,)),))
        raw = step.run(memory_backend)[view]
        np.testing.assert_allclose(raw.target_values, raw.comparison_values)


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
        assert_same_raw(actual, ground_truth)

    def test_works_on_sqlite_fallback(self, sqlite_backend, predicate, ground_truth):
        step = ExecutionStep(
            "sales",
            predicate,
            (ViewGroup("store", VIEWS), ViewGroup("product", PRODUCT_VIEWS)),
            GroupByCombining.GROUPING_SETS,
            combine_flag=True,
        )
        actual = ExecutionPlan([step]).run(sqlite_backend)
        assert_same_raw(actual, ground_truth)


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
        assert_same_raw(actual, ground_truth)

    def test_rollup_on_sqlite(self, sqlite_backend, predicate, ground_truth):
        step = ExecutionStep(
            "sales",
            predicate,
            (ViewGroup("store", VIEWS), ViewGroup("product", PRODUCT_VIEWS)),
            GroupByCombining.ROLLUP,
            combine_flag=True,
        )
        actual = ExecutionPlan([step]).run(sqlite_backend)
        assert_same_raw(actual, ground_truth)


class TestParallelExecutor:
    def test_results_identical_to_sequential(
        self, memory_backend, predicate, ground_truth
    ):
        steps = [
            ExecutionStep("sales", predicate, (ViewGroup("store", VIEWS),)),
            ExecutionStep("sales", predicate, (ViewGroup("product", PRODUCT_VIEWS),)),
        ]
        plan = ExecutionPlan(steps)
        extracted, report = ParallelExecutor(n_workers=4).run(plan, memory_backend)
        assert_same_raw(extracted, ground_truth)
        assert report.n_workers == 4
        assert len(report.step_seconds) == 2
        assert report.total_seconds > 0

    def test_single_worker_sequential_path(self, memory_backend, predicate):
        view = ViewSpec("store", "amount", "sum")
        plan = ExecutionPlan(
            [ExecutionStep("sales", predicate, (ViewGroup("store", (view,)),))]
        )
        extracted, report = ParallelExecutor(n_workers=1).run(plan, memory_backend)
        assert view in extracted
        assert report.mean_step_seconds >= 0.0
        assert report.max_step_seconds >= report.mean_step_seconds

    def test_invalid_workers(self):
        from repro.util.errors import ConfigError

        with pytest.raises(ConfigError):
            ParallelExecutor(n_workers=0)
