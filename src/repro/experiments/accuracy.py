"""Accuracy experiments (demo Scenario 1 and the sampling trade-off).

Ground truth comes from planted deviations in synthetic data: a view is
"truly interesting" when its dimension carries a planted deviation.
Precision@k then measures how well a (metric, configuration) surfaces the
planted views, and the sampling sweep quantifies accuracy loss vs. sample
fraction — the trade-off §3.3 calls out.
"""

from __future__ import annotations

from typing import Any

from repro.api.request import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.core.result import RecommendationResult
from repro.datasets.synthetic import SyntheticDataset
from repro.db.query import RowSelectQuery
from repro.metrics.registry import available_metrics
from repro.sampling.accuracy import kendall_tau, topk_precision, utility_errors


def precision_at_k(result: RecommendationResult, dataset: SyntheticDataset) -> float:
    """Fraction of recommended views whose dimension was planted."""
    if not result.recommendations:
        return 0.0
    hits = sum(
        1 for view in result.recommendations if dataset.is_planted(view.spec)
    )
    return hits / len(result.recommendations)


def metric_quality_on_planted(
    dataset: SyntheticDataset,
    k: int = 5,
    metrics: "list[str] | None" = None,
    config: "SeeDBConfig | None" = None,
) -> list[dict[str, Any]]:
    """Scenario 1 rows: precision@k of every distance metric."""
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    request = RecommendationRequest(
        target=RowSelectQuery(dataset.table.name, dataset.predicate), k=k
    )
    base = config if config is not None else SeeDBConfig(prune_correlated=False)
    rows = []
    for metric in metrics if metrics is not None else available_metrics():
        seedb = SeeDB(backend, base.with_overrides(metric=metric))
        result = seedb.recommend(request)
        rows.append(
            {
                "metric": metric,
                "precision_at_k": round(precision_at_k(result, dataset), 4),
                "top_view": result.recommendations[0].spec.label
                if result.recommendations
                else "(none)",
            }
        )
    return rows


def sampling_accuracy_sweep(
    dataset: SyntheticDataset,
    fractions: "list[float]",
    k: int = 5,
    config: "SeeDBConfig | None" = None,
) -> list[dict[str, Any]]:
    """E10 rows: latency proxy + accuracy vs sample fraction.

    The exact (fraction=None) run provides ground-truth utilities; each
    sampled run is compared against it with top-k precision, Kendall's
    tau, and mean utility error.
    """
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    request = RecommendationRequest(
        target=RowSelectQuery(dataset.table.name, dataset.predicate), k=k
    )
    base = config if config is not None else SeeDBConfig(
        prune_correlated=False, min_rows_for_sampling=0
    )

    exact = SeeDB(backend, base).recommend(request)
    exact_utilities = exact.utilities

    rows: list[dict[str, Any]] = [
        {
            "fraction": 1.0,
            "topk_precision": 1.0,
            "kendall_tau": 1.0,
            "mean_abs_error": 0.0,
            "latency_s": round(exact.total_seconds, 5),
        }
    ]
    for fraction in fractions:
        sampled_config = base.with_overrides(sample_fraction=fraction)
        result = SeeDB(backend, sampled_config).recommend(request)
        errors = utility_errors(exact_utilities, result.utilities)
        rows.append(
            {
                "fraction": fraction,
                "topk_precision": round(
                    topk_precision(exact_utilities, result.utilities, k), 4
                ),
                "kendall_tau": round(kendall_tau(exact_utilities, result.utilities), 4),
                "mean_abs_error": round(errors["mean_abs_error"], 5),
                "latency_s": round(result.total_seconds, 5),
            }
        )
    return rows
