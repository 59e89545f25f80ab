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
from repro.db.aggregates import Aggregate
from repro.db.expressions import RowPartition, col
from repro.db.query import AggregateQuery, GroupingSetsQuery, RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole
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
        """Between equally priced candidates AUTO keeps the shared-scan
        step iff the *declaration* says so."""
        from repro.core.space import enumerate_views
        from tests.conftest import auto_plan_at_equal_prices

        views = enumerate_views(
            backend.schema("conformance"), functions=("sum", "avg")
        )
        plan = auto_plan_at_equal_prices(
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


class TestRowPartitions:
    """Phased execution's partition predicate: the same interleaved row
    slices on every backend, and rounds that really run there."""

    N_ROWS, N_PARTS = 11, 3

    def ordinal_table(self):
        return Table.from_columns(
            "ordinal",
            {
                "pos": list(range(self.N_ROWS)),
                "tag": [f"t{i % 2}" for i in range(self.N_ROWS)],
                "one": [1.0] * self.N_ROWS,
            },
            roles={
                "pos": AttributeRole.DIMENSION,
                "tag": AttributeRole.DIMENSION,
                "one": AttributeRole.MEASURE,
            },
        )

    def test_partition_is_memorys_strided_slice_of_load_order(self, make_backend):
        """Partition ``i`` holds load positions ``[i::n]`` — partition 0
        contains position 0, whatever the dialect's first ``rowid`` is —
        through the single-query and the shared-scan renderers alike, and
        again after the table is replaced."""
        backend = make_backend()
        count = (Aggregate("count"),)
        for replace in (False, True):
            backend.register_table(self.ordinal_table(), replace=replace)
            for index in range(self.N_PARTS):
                partition = RowPartition(index, self.N_PARTS)
                expected = list(range(self.N_ROWS))[index :: self.N_PARTS]
                single = backend.execute(
                    AggregateQuery("ordinal", ("pos",), count, partition)
                )
                assert [int(p) for p in single.column("pos")] == expected
                shared, by_tag = backend.execute_grouping_sets(
                    GroupingSetsQuery(
                        "ordinal", (("pos",), ("tag",)), count, partition
                    )
                )
                assert [int(p) for p in shared.column("pos")] == expected
                assert by_tag.column("count(*)").sum() == len(expected)

    def test_incremental_request_runs_on_the_backend(self, backend_name):
        table, query = medium_workload()
        request = RecommendationRequest(
            query, k=5, strategy="incremental", options={"n_phases": 4}
        )

        def final_round(name):
            backend = BACKEND_FACTORIES[name]()
            try:
                backend.register_table(table)
                with SeeDB(backend, SeeDBConfig(**BASE_CONFIG)) as seedb:
                    seedb.recommend(RecommendationRequest(query))  # warm caches
                    before = backend.statements_executed
                    final = list(seedb.recommend_iter(request))[-1]
                    return final, backend.statements_executed - before
            finally:
                backend.close()

        reference, _ = final_round("memory")
        final, statements = final_round(backend_name)
        assert final.is_final and final.round == 4
        assert statements > 0
        assert final.result.n_queries > 0
        assert [v.spec.label for v in final.recommendations] == [
            v.spec.label for v in reference.recommendations
        ]
        np.testing.assert_allclose(
            [v.utility for v in final.recommendations],
            [v.utility for v in reference.recommendations],
            rtol=1e-6,
        )


@pytest.fixture
def query_preview(backend):
    return backend.execute(RowSelectQuery("conformance", col("product") == "p0"))


def test_row_select_preview(query_preview):
    assert query_preview.num_rows == 8
