"""Integration: demo Scenario 1 — SeeDB surfaces the planted-interesting
views, and the metric choice affects (but does not destroy) that.
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.experiments.accuracy import metric_quality_on_planted, precision_at_k


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticConfig(
            n_rows=30_000,
            n_dimensions=6,
            n_measures=2,
            cardinality=12,
            planted_dimensions=(0, 3),
            target_fraction=0.2,
        ),
        seed=17,
    )


class TestPlantedRecovery:
    def test_planted_views_dominate_topk(self, dataset):
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        seedb = SeeDB(backend, SeeDBConfig(prune_correlated=False))
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery(dataset.table.name, dataset.predicate), k=5
            )
        )
        assert precision_at_k(result, dataset) >= 0.8

    def test_unplanted_dimensions_rank_low(self, dataset):
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        seedb = SeeDB(backend, SeeDBConfig(prune_correlated=False))
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery(dataset.table.name, dataset.predicate), k=5
            )
        )
        planted = set(dataset.planted_dimensions)
        unplanted_utilities = [
            utility
            for spec, utility in result.utilities.items()
            if spec.dimension not in planted and spec.dimension != "segment"
        ]
        planted_utilities = [
            utility
            for spec, utility in result.utilities.items()
            if spec.dimension in planted
        ]
        assert max(planted_utilities) > 3 * max(unplanted_utilities)

    def test_every_metric_achieves_reasonable_precision(self, dataset):
        rows = metric_quality_on_planted(dataset, k=5)
        assert len(rows) >= 7
        for row in rows:
            # The segment dimension trivially deviates too, so precision
            # floors differ per metric, but none should collapse to zero.
            assert row["precision_at_k"] >= 0.4, row

    def test_bad_views_available_for_demo(self, dataset):
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        result = SeeDB(backend, SeeDBConfig(prune_correlated=False)).recommend(
            RecommendationRequest(
                RowSelectQuery(dataset.table.name, dataset.predicate), k=3
            )
        )
        worst = result.worst_views(3)
        assert len(worst) == 3
        assert worst[0].utility <= result.recommendations[-1].utility
