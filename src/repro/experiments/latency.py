"""Latency experiments (demo Scenario 2).

Shared runners for the data-size / attribute-count / distribution /
optimization sweeps. Each measurement reports wall-clock latency plus the
deterministic work counters (queries, scans) so benchmark results are
interpretable even on noisy machines.
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import Backend
from repro.api.request import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import Expression
from repro.db.query import RowSelectQuery
from repro.db.table import Table
from repro.experiments.harness import measure
from repro.optimizer.plan import GroupByCombining


def measure_recommendation(
    table: Table,
    predicate: "Expression | None",
    config: SeeDBConfig,
    backend: "Backend | None" = None,
    repeats: int = 3,
    k: int = 5,
) -> dict[str, Any]:
    """Latency + work counters for one configuration on one table, on a
    warm session: one untimed request first fills the engine cache (the
    metadata, and the comparison sides of the ``table`` reference), so
    ``queries`` counts what every later request issues and ``scans`` the
    timed runs' table scans."""
    if backend is None:
        backend = MemoryBackend()
    if not backend.has_table(table.name):
        backend.register_table(table)
    seedb = SeeDB(backend, config)
    request = RecommendationRequest(target=RowSelectQuery(table.name, predicate), k=k)
    seedb.recommend(request)
    if isinstance(backend, MemoryBackend):
        backend.engine.stats.reset()

    result_holder: dict[str, Any] = {}

    def run() -> None:
        result_holder["result"] = seedb.recommend(request)

    timing = measure(run, repeats=repeats)
    result = result_holder["result"]
    row: dict[str, Any] = {
        "latency_s": round(timing["best_seconds"], 5),
        "queries": result.n_queries,
        "views_executed": result.n_executed_views,
        "views_pruned": len(result.pruned_views()),
    }
    if isinstance(backend, MemoryBackend):
        row["scans"] = backend.engine.stats.table_scans
        backend.engine.stats.reset()
    return row


#: The ablation grid of benchmark E16: one row per optimization bundle.
OPTIMIZATION_GRID: tuple[tuple[str, dict[str, Any]], ...] = (
    (
        "basic (none)",
        dict(
            combine_target_comparison=False,
            combine_aggregates=False,
            groupby_combining=GroupByCombining.NONE,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
        ),
    ),
    (
        "+combine target/comparison",
        dict(
            combine_target_comparison=True,
            combine_aggregates=False,
            groupby_combining=GroupByCombining.NONE,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
        ),
    ),
    (
        "+combine aggregates",
        dict(
            combine_target_comparison=True,
            combine_aggregates=True,
            groupby_combining=GroupByCombining.NONE,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
        ),
    ),
    (
        "+combine group-bys",
        dict(
            combine_target_comparison=True,
            combine_aggregates=True,
            groupby_combining=GroupByCombining.AUTO,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
        ),
    ),
    (
        "+pruning",
        dict(
            combine_target_comparison=True,
            combine_aggregates=True,
            groupby_combining=GroupByCombining.AUTO,
            prune_low_variance=True,
            prune_cardinality=True,
            prune_correlated=True,
        ),
    ),
)


def latency_vs_optimizations(
    table: Table,
    predicate: "Expression | None",
    repeats: int = 3,
    base_config: "SeeDBConfig | None" = None,
) -> list[dict[str, Any]]:
    """The E16 ablation: cumulative optimization bundles on one workload."""
    rows = []
    base = base_config if base_config is not None else SeeDBConfig()
    for label, overrides in OPTIMIZATION_GRID:
        config = base.with_overrides(**overrides)
        row: dict[str, Any] = {"configuration": label}
        row.update(
            measure_recommendation(table, predicate, config, repeats=repeats)
        )
        rows.append(row)
    return rows
