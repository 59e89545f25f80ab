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
        """cost_based_planning=False plans the capability-declared kind
        alone; its one candidate is priced and recorded as not chosen
        by cost."""
        config = SeeDBConfig(
            groupby_combining=GroupByCombining.AUTO, cost_based_planning=False
        )
        with make_seedb(config) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        decision = result.plan_decision
        assert decision["cost_based"] is False
        assert decision["kind"] == "grouping_sets"
        assert set(decision["candidate_seconds"]) == {"grouping_sets"}
        assert "grouping_sets" in result.plan_description

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

    def test_cost_based_planning_leaves_auto_sampling_alone(self):
        """The flag changes how views execute, never the recommendations:
        adaptive sampling engages (and scores) the same with it off."""
        table = make_table(n_rows=20_000)
        results = []
        for flag in (True, False):
            config = SeeDBConfig(
                auto_sample_epsilon=0.05,
                min_rows_for_sampling=1_000,
                cost_based_planning=flag,
            )
            with make_seedb(config, table) as seedb:
                results.append(seedb.recommend(RecommendationRequest(QUERY, k=3)))
        on, off = results
        assert on.sample_fraction is not None and 0 < on.sample_fraction < 1
        assert off.sample_fraction == on.sample_fraction
        assert off.utilities == on.utilities

    def test_auto_sampling_requires_explicit_epsilon(self):
        table = make_table(n_rows=20_000)
        with make_seedb(
            SeeDBConfig(min_rows_for_sampling=1_000), table
        ) as seedb:
            assert seedb.recommend(
                RecommendationRequest(QUERY, k=3)
            ).sample_fraction is None


class TestParallelismDecision:
    """The execute phase's one rule: ``min(n_workers, steps)`` claimers
    asked for when the planner's price of a step amortizes dispatch, else
    one; helpers start only on idle usable cores; the count that ran is
    the one the decision records."""

    @staticmethod
    def claimers(monkeypatch, backend, table, config, cores=2):
        """Run one recommendation on ``cores`` usable cores; the claimer
        count each plan run got, and the plan's step count."""
        from repro.optimizer import parallel
        from repro.optimizer import plan as plan_module

        seen = []
        real_run_steps = plan_module.run_steps

        def spy(steps, backend, n_workers=1):
            seen.append(n_workers)
            return real_run_steps(steps, backend, n_workers)

        monkeypatch.setattr(plan_module, "run_steps", spy)
        monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
        try:
            backend.register_table(table)
            with SeeDB(backend, config) as seedb:
                ctx = seedb.engine.recommend(
                    RecommendationRequest(QUERY, k=3).resolve(config)
                )
        finally:
            backend.close()
        assert ctx.plan_decision.recommended_workers == seen[-1]
        return seen, ctx

    @pytest.mark.parametrize("n_workers", [1, 2, 4, 8])
    def test_memory_at_20k_rows_runs_sequentially_at_any_bound(
        self, monkeypatch, n_workers
    ):
        """A memory step over 20k rows prices well under the dispatch
        overhead, so it claims no worker where sqlite at this size does."""
        seen, ctx = self.claimers(
            monkeypatch,
            MemoryBackend(),
            make_table(n_rows=20_000),
            SeeDBConfig(n_workers=n_workers),
        )
        assert len(ctx.plan.steps) > 1
        assert seen == [1]

    def test_tiny_sqlite_table_runs_sequentially(self, monkeypatch):
        """400 rows: a step's predicted work cannot amortize dispatch."""
        seen, ctx = self.claimers(
            monkeypatch, SqliteBackend(), make_table(), SeeDBConfig(n_workers=4)
        )
        assert len(ctx.plan.steps) > 1
        assert seen == [1]

    @pytest.mark.parametrize("cores", [1, 2, 16])
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_sqlite_at_20k_rows_runs_on_min_of_bound_cores_and_steps(
        self, monkeypatch, n_workers, cores
    ):
        seen, ctx = self.claimers(
            monkeypatch,
            SqliteBackend(),
            make_table(n_rows=20_000),
            SeeDBConfig(n_workers=n_workers),
            cores=cores,
        )
        assert seen == [min(n_workers, cores, len(ctx.plan.steps))]

    @pytest.mark.parametrize("n_rows, expected", [(400, 1), (20_000, 2)])
    def test_plan_without_cost_based_planning_is_still_priced(
        self, monkeypatch, n_rows, expected
    ):
        """With cost-based planning off the planner plans one candidate
        and still prices it; the execute phase reads that price."""
        seen, ctx = self.claimers(
            monkeypatch,
            SqliteBackend(),
            make_table(n_rows=n_rows),
            SeeDBConfig(n_workers=4, cost_based_planning=False),
        )
        assert len(ctx.plan.steps) == 2
        assert ctx.plan_decision.cost_based is False
        assert seen == [expected]

    def test_busy_cores_leave_the_plan_sequential(self, monkeypatch):
        """Another plan's claimers on every core: this one starts no
        helper and records the one claimer it ran on."""
        from repro.optimizer import parallel

        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)
        with parallel.claim_cores(2) as held:
            assert held == 2
            seen, _ = self.claimers(
                monkeypatch,
                SqliteBackend(),
                make_table(n_rows=20_000),
                SeeDBConfig(n_workers=4),
            )
        assert seen == [1]

    @pytest.mark.parametrize(
        "per_step_seconds, n_steps, max_workers, expected",
        [
            (1e-3, 10, 4, 1),
            (5e-3, 10, 4, 4),
            (5e-3, 3, 4, 3),
            (5e-3, 1, 4, 1),
            (5e-3, 10, 1, 1),
        ],
    )
    def test_the_price_decides_alone(
        self, per_step_seconds, n_steps, max_workers, expected
    ):
        """No backend property enters: a memory plan over a table large
        enough to price above the overhead asks for claimers too."""
        from repro.optimizer.cost import choose_parallelism

        assert choose_parallelism(n_steps, per_step_seconds, max_workers) == expected

    def test_claim_cores_grants_idle_cores_and_releases_them(self, monkeypatch):
        from repro.optimizer import parallel

        monkeypatch.setattr(parallel, "usable_cores", lambda: 4)
        with parallel.claim_cores(3) as first:
            with parallel.claim_cores(4) as second:
                with parallel.claim_cores(4) as third:
                    assert (first, second, third) == (3, 1, 1)
        with pytest.raises(RuntimeError):
            with parallel.claim_cores(4):
                raise RuntimeError("plan failed")
        with parallel.claim_cores(8) as alone:
            assert alone == 4

    def test_default_bound_is_the_usable_core_count(self):
        from repro.optimizer.parallel import usable_cores

        assert SeeDBConfig().n_workers == usable_cores()

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        from repro.optimizer import parallel

        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {3}, raising=False
        )
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
        assert parallel.usable_cores() == 1
