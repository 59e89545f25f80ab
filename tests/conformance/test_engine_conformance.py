"""Contract: the full recommendation pipeline on every backend.

Beyond per-query semantics, a conforming backend must (a) let the planner
pick its execution paths purely from the declared capabilities and (b)
produce the same recommendations the memory reference backend does for
the same deterministic workload.
"""

import numpy as np
import pytest

from conformance_kit import BACKEND_FACTORIES, medium_workload
from repro.api import RecommendationRequest
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining


def run_recommend(backend_factory, config):
    table, query = medium_workload()
    backend = backend_factory()
    try:
        backend.register_table(table)
        seedb = SeeDB(backend, config)
        result = seedb.recommend(RecommendationRequest(query, k=5))
        queries = backend.queries_executed
        seedb.close()
        return result, queries
    finally:
        backend.close()


BASE_CONFIG = dict(
    metric="js",
    aggregate_functions=("sum", "avg"),
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
)


class TestPipelineEquivalence:
    @pytest.mark.parametrize(
        "combining",
        [GroupByCombining.NONE, GroupByCombining.AUTO],
        ids=["no_combining", "auto_combining"],
    )
    def test_matches_memory_reference(self, backend_name, combining):
        config = SeeDBConfig(groupby_combining=combining, **BASE_CONFIG)
        reference, _ = run_recommend(BACKEND_FACTORIES["memory"], config)
        result, _ = run_recommend(BACKEND_FACTORIES[backend_name], config)
        assert [v.spec.label for v in result.recommendations] == [
            v.spec.label for v in reference.recommendations
        ]
        np.testing.assert_allclose(
            [v.utility for v in result.recommendations],
            [v.utility for v in reference.recommendations],
            rtol=1e-6,
        )

    def test_sampling_pipeline_runs(self, backend_name):
        config = SeeDBConfig(
            sample_fraction=0.8,
            min_rows_for_sampling=0,
            sample_seed=7,
            **BASE_CONFIG,
        )
        result, _ = run_recommend(BACKEND_FACTORIES[backend_name], config)
        assert result.recommendations


class TestCapabilityDrivenPlanning:
    def test_auto_combining_follows_declared_capability(self, backend):
        """AUTO picks the shared-scan step iff the *declaration* says so."""
        from repro.core.space import enumerate_views
        from repro.optimizer.plan import Planner, PlannerConfig

        views = enumerate_views(
            backend.schema("conformance"), functions=("sum", "avg")
        )
        plan = Planner(
            PlannerConfig(groupby_combining=GroupByCombining.AUTO)
        ).plan(
            views,
            "conformance",
            col("product") == "p0",
            {"region": 4, "product": 2},
            backend.capabilities,
        )
        uses_shared_scan = any(
            step.sharing is GroupByCombining.GROUPING_SETS for step in plan.steps
        )
        assert uses_shared_scan == backend.capabilities.grouping_sets

    def test_shared_scan_issues_fewer_queries_than_separate(self, backend_name):
        """On backends with native grouping sets, AUTO must beat NONE on
        issued logical queries for the same view space."""
        auto = SeeDBConfig(groupby_combining=GroupByCombining.AUTO, **BASE_CONFIG)
        none = SeeDBConfig(groupby_combining=GroupByCombining.NONE, **BASE_CONFIG)
        result_auto, queries_auto = run_recommend(
            BACKEND_FACTORIES[backend_name], auto
        )
        result_none, queries_none = run_recommend(
            BACKEND_FACTORIES[backend_name], none
        )
        if BACKEND_FACTORIES[backend_name].capabilities.grouping_sets:
            assert queries_auto < queries_none
        else:
            assert queries_auto <= queries_none
        assert [v.spec.label for v in result_auto.recommendations] == [
            v.spec.label for v in result_none.recommendations
        ]


@pytest.fixture
def query_preview(backend):
    return backend.execute(RowSelectQuery("conformance", col("product") == "p0"))


def test_row_select_preview(query_preview):
    assert query_preview.num_rows == 8
