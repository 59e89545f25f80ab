"""E17: view-space pruning — work saved vs quality retained (§3.3).

The workload plants everything the three pruning families exist for: a
constant column (variance), bijective copies of two dimensions
(correlation), and an access log that has only ever touched half the
columns (access frequency). Recorded per rule: views pruned, queries
saved, and whether the planted top-k survives.
"""

import time

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
from repro.metadata.collector import MetadataCollector
from repro.metadata.access_log import AccessLog


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=60_000, n_dimensions=5, n_measures=2,
                        cardinality=12, planted_dimensions=(0,)),
        seed=501,
    )
    table = add_constant_column(dataset.table, "constant_dim")
    table = add_correlated_copy(table, "d1", "d1_alias", seed=1)
    table = add_correlated_copy(table, "d2", "d2_alias", seed=2)
    return dataset, table


def run_config(table, predicate, config, access_log=None):
    backend = MemoryBackend()
    backend.register_table(table)
    collector = None
    if access_log is not None:
        collector = MetadataCollector(access_log=access_log)
    seedb = SeeDB(backend, config, metadata_collector=collector)
    query = RowSelectQuery(table.name, predicate)
    start = time.perf_counter()
    result = seedb.recommend(RecommendationRequest(query, k=5))
    return result, time.perf_counter() - start


def test_pruning_rules_ablation(benchmark, record_rows, workload):
    rows = benchmark.pedantic(
        lambda: _pruning_sweep(workload), rounds=1, iterations=1
    )
    record_rows("e17_pruning", rows)
    by_rule = {row["rules"]: row for row in rows}
    assert by_rule["variance"]["views_executed"] < by_rule["none"]["views_executed"]
    assert by_rule["correlation"]["views_executed"] < by_rule["none"]["views_executed"]
    assert by_rule["access_frequency"]["views_executed"] < by_rule["none"]["views_executed"]
    # Metadata-driven pruning must not disturb the recommended set.
    assert by_rule["all_metadata_rules"]["top5_overlap_vs_unpruned"] >= 0.8


def _pruning_sweep(workload):
    dataset, table = workload
    none = SeeDBConfig(
        prune_low_variance=False, prune_cardinality=False,
        prune_correlated=False, prune_rare_access=False,
    )
    baseline, baseline_seconds = run_config(table, dataset.predicate, none)
    baseline_top = {v.spec for v in baseline.recommendations}

    configurations = [
        ("none", none, None),
        ("variance", none.with_overrides(prune_low_variance=True), None),
        ("correlation", none.with_overrides(prune_correlated=True), None),
        ("all_metadata_rules", SeeDBConfig(prune_rare_access=False), None),
    ]
    # Access-frequency config: history that never touched d3/d4/m1.
    log = AccessLog()
    for _ in range(30):
        log.record_columns(table.name, {"d0", "d1", "d2", "m0", "segment"})
    configurations.append(
        (
            "access_frequency",
            none.with_overrides(prune_rare_access=True, min_access_frequency=0.2),
            log,
        )
    )

    rows = []
    for label, config, access_log in configurations:
        result, elapsed = run_config(table, dataset.predicate, config, access_log)
        kept_top = {v.spec for v in result.recommendations}
        rows.append(
            {
                "rules": label,
                "views_executed": result.n_executed_views,
                "views_pruned": len(result.pruned_views()),
                "queries": result.n_queries,
                "latency_s": round(elapsed, 4),
                "top5_overlap_vs_unpruned": round(
                    len(kept_top & baseline_top) / 5, 2
                ),
            }
        )
    return rows


def test_pruned_recommendation_latency(benchmark, workload):
    dataset, table = workload
    backend = MemoryBackend()
    backend.register_table(table)
    seedb = SeeDB(backend, SeeDBConfig())
    query = RowSelectQuery(table.name, dataset.predicate)
    benchmark.pedantic(
        lambda: seedb.recommend(RecommendationRequest(query, k=5)),
        rounds=3,
        iterations=1,
    )
