"""Unit tests: the cost-based planner phase and its decision record."""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.optimizer.cost import PlanCost, coefficients_for
from repro.optimizer.plan import GroupByCombining
from repro.service import single_backend_cluster


def make_table(n_rows=400, name="orders"):
    return Table.from_columns(
        name,
        {
            "region": [f"r{i % 5}" for i in range(n_rows)],
            "product": [f"p{i % 7}" for i in range(n_rows)],
            "band": [f"b{i % 3}" for i in range(n_rows)],
            "amount": [float(10 + (i * 13) % 97) for i in range(n_rows)],
            "units": [float(1 + (i % 6)) for i in range(n_rows)],
        },
        roles={
            "region": AttributeRole.DIMENSION,
            "product": AttributeRole.DIMENSION,
            "band": AttributeRole.DIMENSION,
            "amount": AttributeRole.MEASURE,
            "units": AttributeRole.MEASURE,
        },
    )


def make_seedb(config, table=None):
    backend = MemoryBackend()
    backend.register_table(table if table is not None else make_table())
    return SeeDB(backend, config)


QUERY = RowSelectQuery("orders", col("band") == "b0")


class TestCostBasedChoice:
    def test_auto_records_all_candidates_and_picks_argmin(self):
        with make_seedb(
            SeeDBConfig(groupby_combining=GroupByCombining.AUTO)
        ) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        decision = result.plan_decision
        assert decision is not None
        assert decision["cost_based"] is True
        assert set(decision["candidate_seconds"]) == {
            "grouping_sets", "rollup", "none",
        }
        best = min(decision["candidate_seconds"].items(), key=lambda kv: kv[1])
        assert decision["kind"] == best[0]
        assert decision["predicted_seconds"] == pytest.approx(best[1])
        assert decision["predicted"]["n_queries"] >= 1
        assert decision["coefficients"]["query_seconds"] > 0

    def test_pinned_mode_costs_a_single_candidate(self):
        with make_seedb(
            SeeDBConfig(groupby_combining=GroupByCombining.ROLLUP)
        ) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        decision = result.plan_decision
        assert decision["cost_based"] is False
        assert decision["kind"] == "rollup"
        assert set(decision["candidate_seconds"]) == {"rollup"}
        assert "rollup" in result.plan_description

    def test_escape_hatch_reverts_to_static_planner(self):
        """cost_based_planning=False reproduces the static path exactly:
        same plan description, no decision record."""
        config = SeeDBConfig(
            groupby_combining=GroupByCombining.AUTO, cost_based_planning=False
        )
        with make_seedb(config) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        assert result.plan_decision is None

    def test_auto_matches_static_top_k_bit_for_bit(self):
        table = make_table()
        with make_seedb(
            SeeDBConfig(groupby_combining=GroupByCombining.AUTO), table
        ) as cost_based, make_seedb(
            SeeDBConfig(
                groupby_combining=GroupByCombining.AUTO,
                cost_based_planning=False,
            ),
            table,
        ) as static:
            a = cost_based.recommend(RecommendationRequest(QUERY, k=4))
            b = static.recommend(RecommendationRequest(QUERY, k=4))
        assert [(v.spec, v.utility) for v in a.recommendations] == [
            (v.spec, v.utility) for v in b.recommendations
        ]


class TestPlanDecisionIsStateless:
    """A plan is priced from the plan, the statistics and the backend name
    alone: neither earlier requests nor the serving tier move it."""

    @staticmethod
    def priced(result) -> dict:
        """The decision record without its wall-clock observation."""
        decision = dict(result.plan_decision)
        assert decision.pop("observed_seconds") is not None
        return decision

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_history_and_tier_leave_the_decision_unchanged(self, backend_kind):
        table = make_table()
        config = SeeDBConfig(groupby_combining=GroupByCombining.AUTO)
        request = RecommendationRequest(QUERY, k=3)

        def make_backend():
            backend = MemoryBackend() if backend_kind == "memory" else SqliteBackend()
            backend.register_table(table)
            return backend

        backend = make_backend()
        try:
            with SeeDB(backend, config) as seedb:
                decisions = [self.priced(seedb.recommend(request)) for _ in range(12)]
        finally:
            backend.close()
        assert decisions[-1] == decisions[0]

        cluster = single_backend_cluster(make_backend(), config, owned=True)
        try:
            remote = self.priced(cluster.recommend(request))
        finally:
            cluster.close()
        assert remote == decisions[0]

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_repeated_requests_price_with_the_backend_seed(self, backend_kind):
        """Observed seconds are reported, never learned from: after many
        blocking runs the coefficients are still the backend's seed."""
        backend = MemoryBackend() if backend_kind == "memory" else SqliteBackend()
        backend.register_table(make_table())
        try:
            with SeeDB(backend, SeeDBConfig()) as seedb:
                for _ in range(5):
                    decision = seedb.recommend(
                        RecommendationRequest(QUERY, k=3)
                    ).plan_decision
        finally:
            backend.close()
        assert decision["coefficients"] == coefficients_for(backend.name).to_dict()

    @pytest.mark.parametrize("mode", list(GroupByCombining))
    def test_predicted_seconds_prices_the_predicted_work(self, mode):
        with make_seedb(SeeDBConfig(groupby_combining=mode)) as seedb:
            decision = seedb.recommend(RecommendationRequest(QUERY, k=3)).plan_decision
        seconds = coefficients_for("memory").predict_seconds(
            PlanCost(**decision["predicted"])
        )
        assert decision["predicted_seconds"] == seconds

    def test_a_file_backed_database_gets_no_sidecar(self, tmp_path):
        """Nothing about pricing is persisted beside the database file."""
        path = tmp_path / "views.sqlite"
        backend = SqliteBackend(str(path))
        backend.register_table(make_table())
        try:
            with SeeDB(backend, SeeDBConfig()) as seedb:
                result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        finally:
            backend.close()
        assert result.plan_decision["observed_seconds"] is not None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["views.sqlite"]


class TestSampledCosting:
    def test_sampled_plan_is_priced_at_the_sampled_rows(self):
        """Satellite fix: the estimator prices ``__seedb_sample`` scans at
        the effective sampled count, so predictions track what executes."""
        table = make_table(n_rows=20_000)
        exact_config = SeeDBConfig()
        sampled_config = SeeDBConfig(sample_fraction=0.1)
        with make_seedb(exact_config, table) as exact, make_seedb(
            sampled_config, table
        ) as sampled:
            full = exact.recommend(RecommendationRequest(QUERY, k=3)).plan_decision
            tenth = sampled.recommend(RecommendationRequest(QUERY, k=3)).plan_decision
        assert tenth["sample_fraction"] == 0.1
        assert tenth["predicted"]["rows_scanned"] == pytest.approx(
            full["predicted"]["rows_scanned"] * 0.1, rel=0.01
        )
        assert tenth["predicted_seconds"] < full["predicted_seconds"]

    def test_auto_sample_epsilon_picks_a_fraction(self):
        table = make_table(n_rows=20_000)
        config = SeeDBConfig(auto_sample_epsilon=0.05, min_rows_for_sampling=1_000)
        with make_seedb(config, table) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        assert result.sample_fraction is not None
        assert 0 < result.sample_fraction < 1
        from repro.optimizer.cost import hoeffding_epsilon

        assert hoeffding_epsilon(int(20_000 * result.sample_fraction)) <= 0.05

    def test_auto_sampling_requires_explicit_epsilon(self):
        table = make_table(n_rows=20_000)
        with make_seedb(
            SeeDBConfig(min_rows_for_sampling=1_000), table
        ) as seedb:
            assert seedb.recommend(
                RecommendationRequest(QUERY, k=3)
            ).sample_fraction is None


class TestParallelismAdvice:
    def test_recommendation_recorded_without_auto_parallelism(self):
        with make_seedb(SeeDBConfig(n_workers=4)) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        assert result.plan_decision["recommended_workers"] >= 1

    @staticmethod
    def workers_reaching_the_runner(monkeypatch, config):
        """Run one recommendation; the ``n_workers`` each plan run got."""
        from repro.optimizer import plan as plan_module

        seen = []
        real_run_steps = plan_module.run_steps

        def spy(steps, backend, n_workers=1):
            seen.append(n_workers)
            return real_run_steps(steps, backend, n_workers)

        monkeypatch.setattr(plan_module, "run_steps", spy)
        backend = MemoryBackend()
        backend.register_table(make_table())
        with SeeDB(backend, config) as seedb:
            ctx = seedb.engine.recommend(
                RecommendationRequest(QUERY, k=3).resolve(config)
            )
        assert ctx.plan_decision.recommended_workers == 1
        return seen

    def test_auto_parallelism_downgrades_trivial_work_to_sequential(
        self, monkeypatch
    ):
        """A 400-row in-memory workload cannot amortize worker dispatch:
        with the opt-in flag the plan's steps reach the runner with one
        worker."""
        config = SeeDBConfig(n_workers=4, auto_parallelism=True)
        assert self.workers_reaching_the_runner(monkeypatch, config) == [1]

    def test_without_auto_parallelism_n_workers_reaches_the_runner(
        self, monkeypatch
    ):
        config = SeeDBConfig(n_workers=4)
        assert self.workers_reaching_the_runner(monkeypatch, config) == [4]
