"""Unit tests: incremental execution with early termination.

An incremental run is ``SeeDB.recommend_iter`` on a request with
``strategy="incremental"``; its pruning progress is read from the rounds.
"""

from dataclasses import replace

import pytest

from repro.api import ApiError, RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.recommender import SeeDB
from repro.core.space import enumerate_views
from repro.core.view_processor import ViewProcessor
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.metrics.registry import get_metric
from repro.model.view import ViewSpec

#: The view list is the enumerated space itself: no rule may prune it.
NO_PRUNING = {
    "prune_low_variance": False,
    "prune_cardinality": False,
    "prune_correlated": False,
}


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticConfig(n_rows=20_000, n_dimensions=5, n_measures=2,
                        cardinality=10, planted_dimensions=(0,)),
        seed=71,
    )


@pytest.fixture(scope="module")
def backend(dataset):
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    return backend


@pytest.fixture(scope="module")
def views(dataset):
    views = enumerate_views(dataset.table.schema, functions=("sum", "avg"))
    return [v for v in views if v.dimension != "segment"]


def phased(dataset, k=5, dimensions=None, measures=None, **options):
    """An incremental request for the dataset's planted predicate, phase
    knobs as options."""
    return RecommendationRequest(
        RowSelectQuery(dataset.table.name, dataset.predicate),
        k=k,
        dimensions=dimensions,
        measures=measures,
        strategy="incremental",
        options={**NO_PRUNING, **options},
    )


def run(backend, request):
    """Stream ``request``: its final result and its executed rounds."""
    with SeeDB(backend) as seedb:
        *rounds, final = seedb.recommend_iter(request)
    assert final.is_final
    return final.result, rounds


def work_done(result, rounds) -> int:
    """(view, phase) executions: every executed view runs in round 1, and
    each later round runs the views alive after the round before it."""
    return result.n_executed_views + sum(r.views_alive for r in rounds[:-1])


def pruned(result, views) -> set:
    """Views dropped before the last round: executed but not scored."""
    return set(views) - set(result.utilities)


def exact_utilities(dataset, views):
    """Ground truth via full single-shot execution."""
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
    def test_full_phases_match_single_shot(self, dataset, backend, views):
        """With no pruning opportunity (delta tiny) and all phases run,
        the accumulated estimates equal exact single-shot utilities."""
        result, rounds = run(
            backend, phased(dataset, k=len(views), n_phases=4, delta=1e-9)
        )
        truth = exact_utilities(dataset, views)
        assert len(rounds) == 4
        assert not pruned(result, views)
        for spec, utility in truth.items():
            assert result.utilities[spec] == pytest.approx(utility, rel=1e-9)

    def test_single_phase_is_exact(self, dataset, backend, views):
        result, _rounds = run(backend, phased(dataset, k=3, n_phases=1))
        truth = exact_utilities(dataset, views)
        for spec in views:
            assert result.utilities[spec] == pytest.approx(truth[spec], rel=1e-9)


class TestPruning:
    def test_pruning_saves_work_and_keeps_topk(self, dataset, backend, views):
        result, rounds = run(
            backend, phased(dataset, k=3, n_phases=10, delta=0.2)
        )
        truth = exact_utilities(dataset, views)
        true_top = [
            spec
            for spec, _u in sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))
        ][:3]
        recommended = [v.spec for v in result.recommendations]
        assert len(set(recommended) & set(true_top)) >= 2
        assert work_done(result, rounds) < len(views) * 10
        assert pruned(result, views)  # something was pruned early

    def test_pruned_views_are_truly_bad(self, dataset, backend, views):
        result, _rounds = run(
            backend, phased(dataset, k=3, n_phases=10, delta=0.1)
        )
        truth = exact_utilities(dataset, views)
        dropped = pruned(result, views)
        if not dropped:
            pytest.skip("nothing pruned on this workload")
        top3 = sorted(truth.values(), reverse=True)[2]
        for spec in dropped:
            # A pruned view must not actually belong in the exact top-3
            # by a wide margin (the bound's failure mode).
            assert truth[spec] < top3 + 0.05

    def test_no_pruning_below_min_phases(self, dataset, backend, views):
        result, _rounds = run(
            backend,
            phased(dataset, k=3, n_phases=2, min_phases_before_pruning=5),
        )
        assert not pruned(result, views)


class TestValidationAndEdges:
    def test_unbounded_metric_rejected(self, dataset, backend):
        with pytest.raises(ApiError, match="bounded") as excinfo:
            SeeDB(backend).recommend(
                replace(phased(dataset, k=3), metric="kl")
            )
        assert excinfo.value.field == "metric"

    def test_empty_views(self, dataset, backend):
        result, rounds = run(backend, phased(dataset, k=3, dimensions=()))
        assert result.recommendations == []
        assert rounds == []

    def test_none_predicate(self, dataset, backend):
        request = replace(
            phased(dataset, k=2, dimensions=("d0",), measures=("m0",),
                   n_phases=3),
            target=RowSelectQuery(dataset.table.name),
        )
        result, _rounds = run(backend, request)
        assert result.utilities
        # target == comparison everywhere -> all utilities ~0.
        for utility in result.utilities.values():
            assert utility == pytest.approx(0.0, abs=1e-9)

    def test_work_accounting(self, dataset, backend):
        result, rounds = run(
            backend,
            phased(dataset, k=6, dimensions=("d0", "d1"), measures=("m0",),
                   n_phases=3, delta=1e-9),
        )
        assert result.n_executed_views == 6
        assert len(rounds) == 3
        assert work_done(result, rounds) == 18  # k == views: nothing prunable

    def test_aggregate_functions_option_is_honoured(self, dataset, backend):
        """Request options shape the incremental view space, as they do the
        batch one."""
        result, _rounds = run(
            backend,
            phased(dataset, k=3, n_phases=2, aggregate_functions=["sum"],
                   include_count_views=False),
        )
        assert result.utilities
        assert {spec.func for spec in result.utilities} == {"sum"}
