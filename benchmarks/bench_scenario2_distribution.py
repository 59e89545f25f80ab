"""E15: Scenario 2 knob — data distribution.

Latency and recommendation quality across dimension-value distributions
(uniform, mild/strong zipf, normal). Skew changes group-size profiles —
and therefore sampling risk — but must not change exactness; latency is
recorded per distribution.
"""

import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.experiments.accuracy import precision_at_k

PROFILES = (
    ("uniform", dict(dimension_distribution="uniform")),
    ("zipf_1.1", dict(dimension_distribution="zipf", zipf_exponent=1.1)),
    ("zipf_2.0", dict(dimension_distribution="zipf", zipf_exponent=2.0)),
    ("normal", dict(dimension_distribution="normal")),
)


def make_dataset(overrides):
    return generate_synthetic(
        SyntheticConfig(
            n_rows=60_000, n_dimensions=5, n_measures=2, cardinality=20,
            **overrides,
        ),
        seed=403,
    )


def test_latency_and_quality_vs_distribution(benchmark, record_rows):
    rows = benchmark.pedantic(_distribution_sweep, rounds=1, iterations=1)
    record_rows("e15_distribution", rows)
    for row in rows:
        assert row["precision_at_5"] >= 0.6, row


def _distribution_sweep():
    rows = []
    for label, overrides in PROFILES:
        dataset = make_dataset(overrides)
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        seedb = SeeDB(backend, SeeDBConfig(prune_correlated=False))
        query = RowSelectQuery(dataset.table.name, dataset.predicate)
        start = time.perf_counter()
        result = seedb.recommend(RecommendationRequest(query, k=5))
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "distribution": label,
                "latency_s": round(elapsed, 4),
                "precision_at_5": round(precision_at_k(result, dataset), 3),
                "views_executed": result.n_executed_views,
            }
        )
    return rows


def test_zipf_latency(benchmark):
    dataset = make_dataset(dict(dimension_distribution="zipf", zipf_exponent=2.0))
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    seedb = SeeDB(backend, SeeDBConfig(prune_correlated=False))
    query = RowSelectQuery(dataset.table.name, dataset.predicate)
    benchmark.pedantic(
        lambda: seedb.recommend(RecommendationRequest(query, k=5)),
        rounds=3,
        iterations=1,
    )
