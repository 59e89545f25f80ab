"""E18: distance metrics — cost and ranking agreement (§2).

Per-metric scoring cost on realistic view distributions, plus the pairwise
Kendall-tau agreement between the rankings different metrics induce over
the same view space — quantifying "how the choice of metric affects view
quality".
"""

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.query import RowSelectQuery
from repro.metrics.normalize import normalize_distribution
from repro.metrics.registry import available_metrics, get_metric
from repro.sampling.accuracy import kendall_tau
from repro.util.rng import derive_rng


@pytest.fixture(scope="module")
def distribution_pairs():
    rng = derive_rng(601)
    pairs = []
    for _ in range(200):
        size = int(rng.integers(4, 50))
        pairs.append(
            (
                normalize_distribution(rng.dirichlet(np.ones(size))),
                normalize_distribution(rng.dirichlet(np.ones(size))),
            )
        )
    return pairs


@pytest.mark.parametrize("metric_name", ["emd", "euclidean", "kl", "js",
                                         "chisquare", "total_variation"])
def test_metric_scoring_cost(benchmark, metric_name, distribution_pairs):
    metric = get_metric(metric_name)

    def score_all():
        return sum(metric.distance(p, q) for p, q in distribution_pairs)

    total = benchmark(score_all)
    assert total > 0


def test_metric_ranking_agreement(benchmark, record_rows, synth_small):
    rows = benchmark.pedantic(
        lambda: _agreement_rows(synth_small), rounds=1, iterations=1
    )
    record_rows("e18_metric_agreement", rows)
    # All metrics measure deviation: rankings correlate positively overall.
    taus = [row["kendall_tau"] for row in rows]
    assert np.mean(taus) > 0.3
    # But not perfectly -- the metric choice genuinely matters.
    assert min(taus) < 0.95


def _agreement_rows(synth_small):
    backend = MemoryBackend()
    backend.register_table(synth_small.table)
    query = RowSelectQuery(synth_small.table.name, synth_small.predicate)
    utilities = {}
    for metric in available_metrics():
        config = SeeDBConfig(metric=metric, prune_correlated=False)
        result = SeeDB(backend, config).recommend(RecommendationRequest(query, k=5))
        utilities[metric] = result.utilities

    rows = []
    names = available_metrics()
    for i, metric_a in enumerate(names):
        for metric_b in names[i + 1 :]:
            rows.append(
                {
                    "metric_a": metric_a,
                    "metric_b": metric_b,
                    "kendall_tau": round(
                        kendall_tau(utilities[metric_a], utilities[metric_b]), 3
                    ),
                }
            )
    return rows
