"""E10: the sampling optimization — latency vs accuracy (§3.3).

"We construct a sample of the dataset that can fit in memory and run all
view queries against the sample. However, as expected, the sampling
technique and size of the sample both affect view accuracy." Sweep the
fraction on a 200k-row workload and record latency, top-k precision,
Kendall's tau, and mean utility error against the exact run. Includes the
sampler-choice ablation (Bernoulli vs stratified on zipf-skewed data).
"""

import pytest

from repro.api import RecommendationRequest
from repro.core.view_processor import ViewProcessor
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.accuracy import sampling_accuracy_sweep
from repro.metrics.registry import get_metric
from repro.model.view import ViewSpec
from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup
from repro.sampling import BernoulliSampler, StratifiedSampler, topk_precision


def test_sampling_fraction_sweep(benchmark, record_rows, synth_large):
    rows = benchmark.pedantic(
        lambda: sampling_accuracy_sweep(
            synth_large, fractions=[0.5, 0.2, 0.1, 0.05, 0.01], k=5
        ),
        rounds=1,
        iterations=1,
    )
    record_rows("e10_sampling_fractions", rows)
    # Accuracy degrades gracefully: error grows as the fraction shrinks...
    errors = [row["mean_abs_error"] for row in rows]
    assert errors == sorted(errors)
    # ...while the recommended set stays nearly intact down to 5%.
    for row in rows:
        if row["fraction"] >= 0.05:
            assert row["topk_precision"] >= 0.6, row
    # Latency at 1% must clearly beat exact.
    assert rows[-1]["latency_s"] < rows[0]["latency_s"]


def test_recommend_on_one_percent_sample(benchmark, synth_large):
    from repro.backends.memory import MemoryBackend
    from repro.core.config import SeeDBConfig
    from repro.core.recommender import SeeDB
    from repro.db.query import RowSelectQuery

    backend = MemoryBackend()
    backend.register_table(synth_large.table)
    config = SeeDBConfig(sample_fraction=0.01, min_rows_for_sampling=0,
                         prune_correlated=False)
    seedb = SeeDB(backend, config)
    query = RowSelectQuery(synth_large.table.name, synth_large.predicate)
    benchmark.pedantic(
        lambda: seedb.recommend(RecommendationRequest(query, k=5)),
        rounds=3,
        iterations=1,
    )


def _utilities_on(table, predicate, views):
    from repro.backends.memory import MemoryBackend

    backend = MemoryBackend()
    backend.register_table(table)
    plan = ExecutionPlan(
        [
            ExecutionStep(table.name, predicate, (ViewGroup(v.dimension, (v,)),))
            for v in views
        ]
    )
    processor = ViewProcessor(get_metric("js"))
    return {
        spec: scored.utility
        for spec, scored in processor.score_blocks(plan.run(backend)).items()
    }


def test_sampler_choice_ablation(benchmark, record_rows):
    """Stratified sampling preserves rankings better on skewed dimensions."""
    dataset = generate_synthetic(
        SyntheticConfig(
            n_rows=150_000,
            n_dimensions=4,
            n_measures=1,
            cardinality=30,
            dimension_distribution="zipf",
            zipf_exponent=1.8,
        ),
        seed=77,
    )
    views = [ViewSpec(f"d{i}", "m0", "sum") for i in range(4)] + [
        ViewSpec(f"d{i}", None, "count") for i in range(4)
    ]
    exact = _utilities_on(dataset.table, dataset.predicate, views)

    def sweep():
        rows = []
        for fraction in (0.05, 0.01):
            for label, sampler in (
                ("bernoulli", BernoulliSampler(fraction)),
                ("stratified_d0", StratifiedSampler("d0", fraction, min_per_stratum=3)),
            ):
                precisions = []
                for seed in range(3):
                    sample = sampler.sample(dataset.table, seed=seed)
                    sample = sample.rename(dataset.table.name)
                    estimated = _utilities_on(sample, dataset.predicate, views)
                    precisions.append(topk_precision(exact, estimated, k=3))
                rows.append(
                    {
                        "fraction": fraction,
                        "sampler": label,
                        "mean_topk_precision": round(sum(precisions) / 3, 3),
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("e10b_sampler_ablation", rows)
    assert all(0.0 <= row["mean_topk_precision"] <= 1.0 for row in rows)
