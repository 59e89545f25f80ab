"""Integration: a phased run executes its plan on the backend.

Incremental / streamed requests run ``ctx.plan`` one row partition at a
time through ``ExecutionStep.fetch`` — so they issue statements on the
backend they were sent to, report that work, inherit the planner's sharing
and the sampling knobs, and leave the plan decision's observed seconds
unset (one scan was priced; every round was timed).
"""

import re

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery
from repro.optimizer.plan import GroupByCombining
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    install_injector,
    uninstall_injector,
)
from repro.util.errors import DeadlineExceeded

N_PHASES = 10
#: Pruning never engages: every round runs every step of the plan.
NO_ROUND_PRUNING = {"n_phases": N_PHASES, "min_phases_before_pruning": N_PHASES}


@pytest.fixture(scope="module")
def dataset():
    """The benchmark table's shape (ten dimensions: two GROUPING SETS
    chunks under the default ``max_dims_per_query=8``), fewer rows."""
    return generate_synthetic(
        SyntheticConfig(n_rows=6_000, n_dimensions=10, n_measures=3, cardinality=12),
        seed=1000,
    )


@pytest.fixture(scope="module")
def query(dataset):
    return RowSelectQuery(dataset.table.name, dataset.predicate)


def build_backend(kind, table):
    backend = MemoryBackend() if kind == "memory" else SqliteBackend()
    backend.register_table(table)
    return backend


def stream(seedb, query, k=5, **options):
    """Drain a streamed request; returns (rounds, final result)."""
    rounds = list(seedb.recommend_iter(RecommendationRequest(query, k=k, options=options)))
    assert rounds[-1].is_final
    return rounds, rounds[-1].result


def planned_steps(result) -> int:
    return int(re.match(r"plan: (\d+) step", result.plan_description).group(1))


class TestStreamedResultsReportTheWorkDone:
    def test_sqlite_stream_executes_on_sqlite(self, dataset, query, monkeypatch):
        backend = build_backend("sqlite", dataset.table)
        try:
            fetches = []
            fetch_table = backend.fetch_table

            def spy(name, max_rows=None):
                fetches.append(max_rows)
                return fetch_table(name, max_rows=max_rows)

            monkeypatch.setattr(backend, "fetch_table", spy)
            # AUTO prices on n_workers claimers; from about eight, one
            # statement per dimension prices cheaper on sqlite.
            with SeeDB(backend, SeeDBConfig(n_workers=2)) as seedb:
                before = backend.statements_executed
                _rounds, result = stream(seedb, query)
                issued = backend.statements_executed - before
        finally:
            backend.close()
        # The only table export is MetadataPhase's capped one.
        assert fetches and None not in fetches
        assert issued > len(fetches)
        assert result.n_queries > 0
        assert result.plan_description.startswith("plan: ")
        # AUTO pairs the ten 12-value dimensions into flag-combined rollups.
        assert "rollup[" in result.plan_description
        assert result.plan_decision is not None
        assert list(result.stopwatch.phases) == [
            "metadata", "enumerate", "prune", "sample", "plan",
            "execute", "score", "select",
        ]

    @pytest.mark.parametrize(
        "combining,expected_steps",
        [(GroupByCombining.GROUPING_SETS, 2), (GroupByCombining.NONE, None)],
        ids=["grouping_sets", "none"],
    )
    def test_rounds_issue_the_plans_statements(
        self, dataset, query, combining, expected_steps
    ):
        """n_phases x len(plan.steps) statements: rounds inherit sharing."""
        backend = build_backend("memory", dataset.table)
        with SeeDB(backend, SeeDBConfig(groupby_combining=combining)) as seedb:
            seedb.recommend(RecommendationRequest(query))  # warm the caches
            before = backend.statements_executed
            rounds, result = stream(seedb, query, **NO_ROUND_PRUNING)
            issued = backend.statements_executed - before
        assert len(rounds) == N_PHASES + 1
        steps = planned_steps(result)
        if expected_steps is None:
            # One flag[...] step per surviving dimension.
            assert steps == len({spec.dimension for spec in result.utilities})
            assert steps >= 9
        else:
            assert steps == expected_steps
        assert issued == N_PHASES * steps
        assert result.n_queries == issued

    def test_sample_fraction_is_honoured_and_reported(self, dataset, query):
        backend = build_backend("sqlite", dataset.table)
        try:
            config = SeeDBConfig(sample_fraction=0.3, min_rows_for_sampling=0)
            with SeeDB(backend, config) as seedb:
                _rounds, result = stream(seedb, query, n_phases=4)
                sample = seedb.engine.cache.live_samples
            assert result.sample_fraction == 0.3
            assert len(sample) == 1
        finally:
            backend.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestEveryPlanKindThroughRounds:
    def test_same_top_k_and_utilities(self, kind, dataset, query):
        """Sharing and side-combining change a round's statements, never
        its answer."""
        backend = build_backend(kind, dataset.table)
        finals = {}
        try:
            for label, knobs in {
                "none": {"groupby_combining": GroupByCombining.NONE},
                "grouping_sets": {"groupby_combining": GroupByCombining.GROUPING_SETS},
                "rollup": {"groupby_combining": GroupByCombining.ROLLUP},
                "auto": {"groupby_combining": GroupByCombining.AUTO},
                "separate": {"combine_target_comparison": False},
                "per_view": {
                    "combine_target_comparison": False,
                    "combine_aggregates": False,
                },
            }.items():
                with SeeDB(backend, SeeDBConfig(**knobs)) as seedb:
                    _rounds, finals[label] = stream(seedb, query, n_phases=4)
        finally:
            backend.close()
        expected = finals.pop("none")
        for label, result in finals.items():
            assert [v.spec for v in result.recommendations] == [
                v.spec for v in expected.recommendations
            ], label
            assert result.utilities == pytest.approx(expected.utilities, abs=1e-9), label
        assert finals["grouping_sets"].plan_description != expected.plan_description


class TestObservedSeconds:
    def test_a_phased_run_leaves_observed_seconds_unset(self, dataset, query):
        """Ten rounds of wall clock are not comparable with a one-scan
        prediction; only blocking runs report observed seconds."""
        backend = build_backend("memory", dataset.table)
        with SeeDB(backend) as seedb:
            _rounds, result = stream(seedb, query)
            assert result.plan_decision is not None
            assert result.plan_decision["observed_seconds"] is None
            blocking = seedb.recommend(RecommendationRequest(query))
            assert blocking.plan_decision["observed_seconds"] is not None


class TestDeadlineInsideARound:
    @pytest.fixture(autouse=True)
    def clean_injector(self):
        yield
        uninstall_injector()

    def run(self, dataset, query, after):
        """Stall one backend statement past the deadline; the next
        statement's cancellation checkpoint interrupts the round."""
        backend = build_backend("memory", dataset.table)
        with SeeDB(backend) as seedb:
            warm = seedb.recommend(RecommendationRequest(query))
            steps = planned_steps(warm)
            install_injector(
                FaultInjector(
                    [FaultSpec("backend.execute", "stall", delay_s=0.6,
                               after=after(steps), limit=1)]
                )
            )
            return stream(seedb, query, deadline_ms=500, n_phases=4)

    def test_interrupted_round_is_dropped_and_the_last_complete_one_ships(
        self, dataset, query
    ):
        rounds, result = self.run(dataset, query, after=lambda steps: steps)
        assert [r.round for r in rounds] == [1, 1]  # round 2 never completed
        assert result.partial is True
        assert result.partial_epsilon == rounds[-1].epsilon > 0
        assert [v.spec for v in result.recommendations] == [
            v.spec for v in rounds[0].recommendations
        ]

    def test_no_complete_round_is_still_a_typed_deadline_error(self, dataset, query):
        with pytest.raises(DeadlineExceeded):
            self.run(dataset, query, after=lambda steps: 0)
