"""E19 (extension): incremental execution with early termination.

The latency/accuracy trade-off of §1 challenge (d), realized as phased
execution with confidence-based view pruning. Recorded per delta setting:
work saved (fraction of per-view phase executions skipped), top-k
precision vs. the exact run, and wall-clock latency vs. single-shot
execution. Work is read from the streamed rounds: every executed view runs
in round 1, and each later round runs the views alive after the one before.
"""

import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.recommender import SeeDB
from repro.core.space import enumerate_views, split_predicate_dimensions
from repro.core.view_processor import ViewProcessor
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.metrics.registry import get_metric
from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup
from repro.sampling.accuracy import topk_precision


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=120_000, n_dimensions=8, n_measures=2,
                        cardinality=12, planted_dimensions=(0, 4)),
        seed=901,
    )
    views = enumerate_views(dataset.table.schema, functions=("sum", "avg"))
    views, _excluded = split_predicate_dimensions(views, dataset.predicate)
    return dataset, views


def exact_run(dataset, views):
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    grouped = {}
    for view in views:
        grouped.setdefault(view.dimension, []).append(view)
    plan = ExecutionPlan(
        [
            ExecutionStep(dataset.table.name, dataset.predicate,
                          (ViewGroup(dim, tuple(members)),))
            for dim, members in grouped.items()
        ]
    )
    start = time.perf_counter()
    blocks = plan.run(backend)
    scored = ViewProcessor(get_metric("js")).score_blocks(blocks)
    elapsed = time.perf_counter() - start
    return {spec: view.utility for spec, view in scored.items()}, elapsed


def test_early_termination_tradeoff(benchmark, record_rows, workload):
    dataset, views = workload
    truth, exact_seconds = exact_run(dataset, views)
    backend = MemoryBackend()
    backend.register_table(dataset.table)

    def sweep():
        rows = [
            {
                "configuration": "exact single-shot",
                "work_saved": 0.0,
                "topk_precision": 1.0,
                "latency_s": round(exact_seconds, 4),
            }
        ]
        for label, delta, scale in (
            ("conservative (d=0.05, c=0.25)", 0.05, 0.25),
            ("balanced (d=0.2, c=0.25)", 0.2, 0.25),
            ("aggressive (d=0.2, c=0.1)", 0.2, 0.1),
        ):
            start = time.perf_counter()
            with SeeDB(backend) as seedb:
                *rounds, final = seedb.recommend_iter(
                    RecommendationRequest(
                        RowSelectQuery(dataset.table.name, dataset.predicate),
                        k=5,
                        metric="js",
                        options={
                            "n_phases": 10,
                            "delta": delta,
                            "epsilon_scale": scale,
                            # The executed views are the workload's views.
                            "prune_low_variance": False,
                            "prune_cardinality": False,
                            "prune_correlated": False,
                        },
                    )
                )
            elapsed = time.perf_counter() - start
            result = final.result
            assert result.n_executed_views == len(views)
            work_done = result.n_executed_views + sum(
                r.views_alive for r in rounds[:-1]
            )
            rows.append(
                {
                    "configuration": label,
                    "work_saved": round(1.0 - work_done / (len(views) * 10), 3),
                    "topk_precision": round(
                        topk_precision(truth, result.utilities, k=5), 2
                    ),
                    "latency_s": round(elapsed, 4),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("e19_incremental", rows)
    # Shape: more aggressive settings save more work; precision stays high.
    saved = [row["work_saved"] for row in rows]
    assert saved == sorted(saved), rows
    assert saved[-1] > 0.2, rows
    for row in rows:
        assert row["topk_precision"] >= 0.8, row
