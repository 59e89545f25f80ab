"""E12: demo Scenario 1 — recommendation quality per distance metric.

Planted-deviation synthetic data gives objective ground truth; every
registered metric is scored by precision@5 against it, reproducing the
demo's "experiment with a variety of distance metrics and observe the
effects on the resulting views".
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.experiments.accuracy import metric_quality_on_planted


@pytest.fixture(scope="module")
def planted():
    return generate_synthetic(
        SyntheticConfig(
            n_rows=80_000,
            n_dimensions=6,
            n_measures=2,
            cardinality=14,
            planted_dimensions=(0, 3),
        ),
        seed=301,
    )


def test_metric_quality_table(benchmark, record_rows, planted):
    rows = benchmark.pedantic(
        lambda: metric_quality_on_planted(planted, k=5), rounds=1, iterations=1
    )
    record_rows("e12_metric_quality", rows)
    assert len(rows) >= 7
    for row in rows:
        assert row["precision_at_k"] >= 0.6, row
    # The default metric must be at the top of its game on planted data.
    js_row = next(row for row in rows if row["metric"] == "js")
    assert js_row["precision_at_k"] >= 0.8


def test_recommendation_latency_on_planted(benchmark, planted):
    backend = MemoryBackend()
    backend.register_table(planted.table)
    seedb = SeeDB(backend, SeeDBConfig(prune_correlated=False))
    query = RowSelectQuery(planted.table.name, planted.predicate)
    result = benchmark.pedantic(
        lambda: seedb.recommend(
            RecommendationRequest(query, k=5)
        ), rounds=3, iterations=1
    )
    planted_dimensions = set(planted.planted_dimensions)
    top_dimensions = {v.spec.dimension for v in result.recommendations}
    assert top_dimensions <= planted_dimensions
