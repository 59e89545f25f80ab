"""Integration: demo Scenario 2 — optimizations change work, not answers.

Deterministic work-counter assertions (scan counts, query counts) for each
optimization family, plus sampling and parallelism behaviour.
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import (
    SyntheticConfig,
    add_constant_column,
    add_correlated_copy,
    generate_synthetic,
)
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining
from repro.sampling.accuracy import topk_precision

NO_PRUNING = dict(
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
    prune_rare_access=False,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticConfig(n_rows=20_000, n_dimensions=5, n_measures=2, cardinality=10),
        seed=23,
    )


def run(dataset, **overrides):
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    config = SeeDBConfig(**{**NO_PRUNING, **overrides})
    seedb = SeeDB(backend, config)
    result = seedb.recommend(
        RecommendationRequest(
            RowSelectQuery(dataset.table.name, dataset.predicate), k=5
        )
    )
    return backend, result


class TestQueryCombining:
    def test_flag_halves_queries(self, dataset):
        _b1, separate = run(dataset, combine_target_comparison=False,
                            combine_aggregates=False)
        _b2, combined = run(dataset, combine_target_comparison=True,
                            combine_aggregates=False)
        assert combined.n_queries * 2 == separate.n_queries

    def test_aggregate_combining_scales_with_dimensions(self, dataset):
        _b, result = run(dataset, combine_target_comparison=True,
                         combine_aggregates=True,
                         groupby_combining=GroupByCombining.NONE)
        n_dimensions = 5  # 5 generated; segment is predicate-excluded
        assert result.n_queries == n_dimensions

    def test_grouping_sets_single_query(self, dataset):
        _b, result = run(dataset, groupby_combining=GroupByCombining.GROUPING_SETS)
        assert result.n_queries == 1

    def test_scan_counts_drop_with_sharing(self, dataset):
        backend_a, basic = run(dataset, combine_target_comparison=False,
                               combine_aggregates=False)
        backend_b, shared = run(dataset, groupby_combining=GroupByCombining.GROUPING_SETS)
        # Each backend is fresh, so total scans == view-query scans + metadata.
        assert backend_b.engine.stats.table_scans < backend_a.engine.stats.table_scans

    def test_rollup_fits_budget(self, dataset):
        _b, result = run(
            dataset,
            groupby_combining=GroupByCombining.ROLLUP,
            memory_budget_cells=500,
        )
        # Budget 500 (250 with flag): 10*10=100 fits, 10*10*10 doesn't.
        assert result.n_queries >= 2
        assert "rollup" in result.plan_description


class TestPruning:
    def test_pruning_reduces_executed_views(self, dataset):
        table = add_constant_column(dataset.table, "constant")
        table = add_correlated_copy(table, "d1", "d1_copy")
        backend = MemoryBackend()
        backend.register_table(table)
        config = SeeDBConfig()  # default pruning on
        result = SeeDB(backend, config).recommend(
            RecommendationRequest(RowSelectQuery(table.name, dataset.predicate), k=5)
        )
        assert result.n_executed_views < result.n_candidate_views
        pruned_dimensions = {v.dimension for v, _reason in result.pruned_views()}
        assert "constant" in pruned_dimensions
        assert ("d1" in pruned_dimensions) or ("d1_copy" in pruned_dimensions)

    def test_pruning_preserves_topk_quality(self, dataset):
        _b1, unpruned = run(dataset)
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        pruned_result = SeeDB(backend, SeeDBConfig(prune_correlated=False)).recommend(
            RecommendationRequest(
                RowSelectQuery(dataset.table.name, dataset.predicate), k=5
            )
        )
        top_unpruned = [v.spec for v in unpruned.recommendations]
        top_pruned = [v.spec for v in pruned_result.recommendations]
        assert len(set(top_unpruned) & set(top_pruned)) >= 4


class TestSampling:
    def test_sampling_reduces_scanned_rows(self, dataset):
        backend_exact, exact = run(dataset)
        backend_sampled, sampled = run(
            dataset, sample_fraction=0.1, min_rows_for_sampling=0
        )
        assert sampled.sample_fraction == 0.1
        assert (
            backend_sampled.engine.stats.rows_scanned
            < 0.5 * backend_exact.engine.stats.rows_scanned
        )

    def test_sampled_topk_close_to_exact(self, dataset):
        _b1, exact = run(dataset)
        _b2, sampled = run(dataset, sample_fraction=0.2, min_rows_for_sampling=0)
        precision = topk_precision(exact.utilities, sampled.utilities, k=5)
        assert precision >= 0.6

    def test_small_tables_skip_sampling(self, memory_backend):
        from repro.db.expressions import col

        config = SeeDBConfig(sample_fraction=0.5, min_rows_for_sampling=10_000)
        result = SeeDB(memory_backend, config).recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave")
            )
        )
        assert result.sample_fraction is None


class TestParallelism:
    def test_parallel_same_answers(self, dataset, monkeypatch):
        """On sqlite, where 20k rows price a step above the dispatch
        overhead, four claimers score every view as one does. The usable
        cores are pinned at four so the parallel arm runs on any machine."""
        from repro.backends.sqlite import SqliteBackend
        from repro.optimizer import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "usable_cores", lambda: 4)
        backend = SqliteBackend()
        try:
            backend.register_table(dataset.table)
            request = RecommendationRequest(
                RowSelectQuery(dataset.table.name, dataset.predicate), k=5
            )
            results = [
                SeeDB(
                    backend,
                    # A pinned kind: AUTO prices the wall clock on
                    # n_workers claimers, so its pick may differ by bound.
                    SeeDBConfig(
                        combine_aggregates=True,
                        groupby_combining=GroupByCombining.NONE,
                        n_workers=n_workers,
                        **NO_PRUNING,
                    ),
                ).recommend(request)
                for n_workers in (1, 4)
            ]
        finally:
            backend.close()
        sequential, parallel = results
        assert sequential.plan_decision["recommended_workers"] == 1
        assert parallel.plan_decision["recommended_workers"] > 1
        assert parallel.utilities == sequential.utilities

    def test_parallel_on_sqlite(self, dataset):
        from repro.backends.sqlite import SqliteBackend

        backend = SqliteBackend()
        try:
            backend.register_table(dataset.table)
            config = SeeDBConfig(n_workers=4, **NO_PRUNING)
            result = SeeDB(backend, config).recommend(
                RecommendationRequest(
                    RowSelectQuery(dataset.table.name, dataset.predicate), k=3
                )
            )
            assert len(result.recommendations) == 3
        finally:
            backend.close()
