"""Unit tests: incremental execution with early termination."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.core.incremental import IncrementalRecommender, IncrementalResult
from repro.core.space import enumerate_views
from repro.core.view_processor import ViewProcessor
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.metrics.registry import get_metric
from repro.model.view import ViewSpec
from repro.util.errors import ConfigError


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticConfig(n_rows=20_000, n_dimensions=5, n_measures=2,
                        cardinality=10, planted_dimensions=(0,)),
        seed=71,
    )


@pytest.fixture(scope="module")
def views(dataset):
    views = enumerate_views(dataset.table.schema, functions=("sum", "avg"))
    return [v for v in views if v.dimension != "segment"]


def phased(dataset, k=5, **knobs):
    """An incremental request for the dataset's planted predicate, phase
    knobs as options."""
    return RecommendationRequest(
        RowSelectQuery(dataset.table.name, dataset.predicate),
        k=k,
        strategy="incremental",
        options=knobs,
    )


def exact_utilities(dataset, views):
    """Ground truth via full single-shot execution."""
    from repro.backends.memory import MemoryBackend
    from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup

    backend = MemoryBackend()
    backend.register_table(dataset.table)
    grouped: dict[str, list[ViewSpec]] = {}
    for view in views:
        grouped.setdefault(view.dimension, []).append(view)
    plan = ExecutionPlan(
        [
            ExecutionStep(dataset.table.name, dataset.predicate,
                          (ViewGroup(dim, tuple(members)),))
            for dim, members in grouped.items()
        ]
    )
    processor = ViewProcessor(get_metric("js"))
    return {
        spec: scored.utility
        for spec, scored in processor.score_blocks(plan.run(backend)).items()
    }


class TestExactness:
    def test_full_phases_match_single_shot(self, dataset, views):
        """With no pruning opportunity (delta tiny) and all phases run,
        the accumulated estimates equal exact single-shot utilities."""
        recommender = IncrementalRecommender(dataset.table, metric="js")
        result = recommender.recommend(
            phased(dataset, k=len(views), n_phases=4, delta=1e-9), views
        )
        truth = exact_utilities(dataset, views)
        assert result.phases_executed == 4
        assert not result.pruned_at_phase
        for spec, utility in truth.items():
            assert result.utilities[spec] == pytest.approx(utility, rel=1e-9)

    def test_single_phase_is_exact(self, dataset, views):
        recommender = IncrementalRecommender(dataset.table)
        result = recommender.recommend(phased(dataset, k=3, n_phases=1), views)
        truth = exact_utilities(dataset, views)
        for spec in views:
            assert result.utilities[spec] == pytest.approx(truth[spec], rel=1e-9)


class TestPruning:
    def test_pruning_saves_work_and_keeps_topk(self, dataset, views):
        recommender = IncrementalRecommender(dataset.table, metric="js")
        result = recommender.recommend(
            phased(dataset, k=3, n_phases=10, delta=0.2), views
        )
        truth = exact_utilities(dataset, views)
        true_top = [
            spec
            for spec, _u in sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
        ][:3]
        recommended = [v.spec for v in result.recommendations]
        assert len(set(recommended) & set(true_top)) >= 2
        assert result.work_saved_fraction > 0.0
        assert result.pruned_at_phase  # something was pruned early

    def test_pruned_views_are_truly_bad(self, dataset, views):
        recommender = IncrementalRecommender(dataset.table, metric="js")
        result = recommender.recommend(
            phased(dataset, k=3, n_phases=10, delta=0.1), views
        )
        truth = exact_utilities(dataset, views)
        if not result.pruned_at_phase:
            pytest.skip("nothing pruned on this workload")
        top3 = sorted(truth.values(), reverse=True)[2]
        for spec in result.pruned_at_phase:
            # A pruned view must not actually belong in the exact top-3
            # by a wide margin (the bound's failure mode).
            assert truth[spec] < top3 + 0.05

    def test_no_pruning_below_min_phases(self, dataset, views):
        recommender = IncrementalRecommender(dataset.table)
        result = recommender.recommend(
            phased(dataset, k=3, n_phases=2, min_phases_before_pruning=5), views
        )
        assert not result.pruned_at_phase


class TestValidationAndEdges:
    def test_unbounded_metric_rejected(self, dataset):
        with pytest.raises(ConfigError, match="bounded"):
            IncrementalRecommender(dataset.table, metric="kl")

    def test_empty_views(self, dataset):
        recommender = IncrementalRecommender(dataset.table)
        result = recommender.recommend(phased(dataset, k=3), [])
        assert result.recommendations == []
        assert result.work_saved_fraction == 0.0

    def test_none_predicate(self, dataset, views):
        recommender = IncrementalRecommender(dataset.table)
        request = replace(
            phased(dataset, k=2, n_phases=3),
            target=RowSelectQuery(dataset.table.name),
        )
        result = recommender.recommend(request, views[:4])
        # target == comparison everywhere -> all utilities ~0.
        for utility in result.utilities.values():
            assert utility == pytest.approx(0.0, abs=1e-9)

    def test_work_accounting(self, dataset, views):
        recommender = IncrementalRecommender(dataset.table)
        subset = views[:6]
        result = recommender.recommend(
            phased(dataset, k=6, n_phases=3, delta=1e-9), subset
        )
        assert result.work_possible == 18
        assert result.work_done == 18  # k == len(views): nothing prunable
