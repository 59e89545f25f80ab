"""Unit tests: every step shape hands the scorer identical view blocks.

Strategy: compute ground truth with independent queries, then assert each
sharing strategy (flag, grouping sets, rollup; with and without flag
combining) yields the same target and comparison series per view.
"""

import numpy as np
import pytest

from repro.backends.sqlite import SqliteBackend
from repro.db.expressions import col
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.model.view import ViewSpec
from repro.optimizer.parallel import ParallelExecutor
from repro.optimizer.plan import (
    ExecutionPlan,
    ExecutionStep,
    GroupByCombining,
    ViewGroup,
)

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


class TestParallelExecutor:
    def test_results_identical_to_sequential(
        self, memory_backend, predicate, ground_truth
    ):
        steps = [
            ExecutionStep("sales", predicate, (ViewGroup("store", VIEWS),)),
            ExecutionStep("sales", predicate, (ViewGroup("product", PRODUCT_VIEWS),)),
        ]
        plan = ExecutionPlan(steps)
        blocks, report = ParallelExecutor(n_workers=4).run(plan, memory_backend)
        assert_same_views(blocks, ground_truth)
        assert report.n_workers == 4
        assert len(report.step_seconds) == 2
        assert report.total_seconds > 0

    def test_single_worker_sequential_path(self, memory_backend, predicate):
        view = ViewSpec("store", "amount", "sum")
        plan = ExecutionPlan(
            [ExecutionStep("sales", predicate, (ViewGroup("store", (view,)),))]
        )
        blocks, report = ParallelExecutor(n_workers=1).run(plan, memory_backend)
        assert view in view_rows(blocks)
        assert report.mean_step_seconds >= 0.0
        assert report.max_step_seconds >= report.mean_step_seconds

    def test_invalid_workers(self):
        from repro.util.errors import ConfigError

        with pytest.raises(ConfigError):
            ParallelExecutor(n_workers=0)
