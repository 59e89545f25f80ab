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
            "grouping_sets", "rollup@400", "rollup@1000", "rollup@6000", "none",
        }
        best = min(decision["candidate_seconds"].items(), key=lambda kv: kv[1])
        assert decision["kind"] == best[0].split("@")[0]
        assert decision["predicted_seconds"] == pytest.approx(best[1])
        assert decision["predicted"]["n_queries"] >= 1
        assert decision["predicted"]["aggregate_work"] > 0
        assert decision["coefficients"]["query_seconds"] > 0

    def test_auto_is_the_default(self):
        assert SeeDBConfig().groupby_combining is GroupByCombining.AUTO

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

    def test_pinned_declared_kind_is_planned_alone(self):
        """Pinning the kind the backend declares plans it alone; its one
        candidate is priced and recorded as not chosen by cost."""
        config = SeeDBConfig(groupby_combining=GroupByCombining.GROUPING_SETS)
        with make_seedb(config) as seedb:
            result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        decision = result.plan_decision
        assert decision["cost_based"] is False
        assert decision["kind"] == "grouping_sets"
        assert set(decision["candidate_seconds"]) == {"grouping_sets"}
        assert "grouping_sets" in result.plan_description

    @pytest.mark.parametrize(
        "kind",
        [GroupByCombining.NONE, GroupByCombining.GROUPING_SETS, GroupByCombining.ROLLUP],
    )
    def test_auto_matches_every_pinned_kind(self, kind):
        """Rollup marginalisation reassociates sums, so utilities agree to
        summation-order noise, not bit for bit."""
        table = make_table()
        with make_seedb(
            SeeDBConfig(groupby_combining=GroupByCombining.AUTO), table
        ) as auto, make_seedb(SeeDBConfig(groupby_combining=kind), table) as pinned:
            a = auto.recommend(RecommendationRequest(QUERY, k=4))
            b = pinned.recommend(RecommendationRequest(QUERY, k=4))
        assert [v.spec for v in a.recommendations] == [
            v.spec for v in b.recommendations
        ]
        assert set(a.utilities) == set(b.utilities)
        for spec, utility in a.utilities.items():
            assert utility == pytest.approx(b.utilities[spec], abs=1e-9)

    @pytest.mark.parametrize("backend_kind", ["memory", "sqlite"])
    def test_auto_materialises_queries_for_exactly_one_plan(
        self, monkeypatch, backend_kind
    ):
        """Candidates are priced from their bins: only the chosen plan's
        steps are built and only they render queries."""
        from repro.optimizer.plan import ExecutionStep, Planner

        built, rendered = [], set()
        real_build, real_queries = Planner.build, ExecutionStep.queries

        def build(*args, **kwargs):
            plan = real_build(*args, **kwargs)
            built.append(plan)
            return plan

        def queries(step):
            rendered.add(id(step))
            return real_queries(step)

        monkeypatch.setattr(Planner, "build", staticmethod(build))
        monkeypatch.setattr(ExecutionStep, "queries", queries)
        backend = MemoryBackend() if backend_kind == "memory" else SqliteBackend()
        backend.register_table(make_table(n_rows=2_000))
        try:
            with SeeDB(backend, SeeDBConfig()) as seedb:
                result = seedb.recommend(RecommendationRequest(QUERY, k=3))
        finally:
            backend.close()
        assert len(result.plan_decision["candidate_seconds"]) == 5
        (plan,) = built
        assert rendered == {id(step) for step in plan.steps}


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

    def test_plan_kind_leaves_auto_sampling_alone(self):
        """The plan kind changes how views execute, never the
        recommendations: adaptive sampling engages (and scores) the same
        under ``AUTO`` and a pinned kind."""
        table = make_table(n_rows=20_000)
        results = []
        for kind in (GroupByCombining.AUTO, GroupByCombining.NONE):
            config = SeeDBConfig(
                auto_sample_epsilon=0.05,
                min_rows_for_sampling=1_000,
                groupby_combining=kind,
            )
            with make_seedb(config, table) as seedb:
                results.append(seedb.recommend(RecommendationRequest(QUERY, k=3)))
        auto, pinned = results
        assert auto.sample_fraction is not None and 0 < auto.sample_fraction < 1
        assert pinned.sample_fraction == auto.sample_fraction
        assert set(pinned.utilities) == set(auto.utilities)
        for spec, utility in auto.utilities.items():
            assert utility == pytest.approx(pinned.utilities[spec], abs=1e-9)

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
    def claimers(monkeypatch, backend, table, config, cores=2, query=QUERY):
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
                    RecommendationRequest(query, k=3).resolve(config)
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
            SeeDBConfig(n_workers=n_workers, groupby_combining=GroupByCombining.NONE),
        )
        assert len(ctx.plan.steps) > 1
        assert seen == [1]

    def test_tiny_sqlite_table_runs_sequentially(self, monkeypatch):
        """400 rows: a step's predicted work cannot amortize dispatch."""
        seen, ctx = self.claimers(
            monkeypatch,
            SqliteBackend(),
            make_table(),
            SeeDBConfig(n_workers=4, groupby_combining=GroupByCombining.NONE),
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
            SeeDBConfig(n_workers=n_workers, groupby_combining=GroupByCombining.NONE),
            cores=cores,
        )
        assert seen == [min(n_workers, cores, len(ctx.plan.steps))]

    @staticmethod
    def benchmark_table():
        """The benchmark's shape: 20k rows, ten 12-value dimensions, ten
        measures."""
        from repro.datasets.synthetic import SyntheticConfig, generate_synthetic

        return generate_synthetic(
            SyntheticConfig(
                n_rows=20_000, n_dimensions=10, n_measures=10, cardinality=12
            ),
            seed=1,
        ).table

    @pytest.mark.parametrize(
        "backend_kind, expected", [("memory", 1), ("sqlite", 2)]
    )
    def test_auto_on_the_benchmark_table(self, monkeypatch, backend_kind, expected):
        """The benchmark's shape under the default ``AUTO`` on two cores:
        pair-keyed rollup bins, five statements, priced on both backends;
        memory runs them on one claimer, sqlite on both cores."""
        table = self.benchmark_table()
        backend = MemoryBackend() if backend_kind == "memory" else SqliteBackend()
        seen, ctx = self.claimers(
            monkeypatch,
            backend,
            table,
            SeeDBConfig(n_workers=2),
            query=RowSelectQuery(table.name, col("d3") == "d3=v05"),
        )
        assert ctx.plan_decision.kind == "rollup"
        assert len(ctx.plan.steps) == 5
        assert all(len(step.groups) == 2 for step in ctx.plan.steps)
        assert seen == [expected]

    def test_auto_on_sqlite_prices_the_claimer_bound(self, monkeypatch):
        """On sixteen cores the benchmark's ten one-dimension statements
        run at once and price below five pair rollups, so ``AUTO`` runs
        them, each on a claimer of its own."""
        table = self.benchmark_table()
        seen, ctx = self.claimers(
            monkeypatch,
            SqliteBackend(),
            table,
            SeeDBConfig(n_workers=16),
            cores=16,
            query=RowSelectQuery(table.name, col("d3") == "d3=v05"),
        )
        decision = ctx.plan_decision
        assert decision.kind == "none"
        assert decision.candidate_seconds["none"] < decision.candidate_seconds[
            "rollup@400"
        ]
        assert seen == [len(ctx.plan.steps)] == [10]

    def test_memory_steps_never_ask_for_claimers(self, monkeypatch):
        """A pinned ``GROUPING_SETS`` plan on the benchmark's shape prices
        its two memory steps above the dispatch line; memory steps hold
        the interpreter lock, so the plan still runs on one claimer, as
        the planner priced it."""
        table = self.benchmark_table()
        seen, ctx = self.claimers(
            monkeypatch,
            MemoryBackend(),
            table,
            SeeDBConfig(n_workers=2, groupby_combining=GroupByCombining.GROUPING_SETS),
            query=RowSelectQuery(table.name, col("d3") == "d3=v05"),
        )
        decision = ctx.plan_decision
        per_step = decision.coefficients.predict_seconds(decision.predicted) / len(
            ctx.plan.steps
        )
        assert len(ctx.plan.steps) == 2 and per_step > 4e-3
        assert decision.predicted_seconds == pytest.approx(
            decision.coefficients.predict_seconds(decision.predicted)
        )
        assert seen == [1]

    @pytest.mark.parametrize("n_rows, expected", [(400, 1), (20_000, 2)])
    def test_pinned_plan_is_still_priced(self, monkeypatch, n_rows, expected):
        """A pinned kind is one candidate and still priced; the execute
        phase reads that price."""
        seen, ctx = self.claimers(
            monkeypatch,
            SqliteBackend(),
            make_table(n_rows=n_rows),
            SeeDBConfig(n_workers=4, groupby_combining=GroupByCombining.NONE),
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
        """Where statements overlap, no backend property enters but the
        price of a step."""
        from repro.optimizer.cost import choose_parallelism

        assert choose_parallelism(n_steps, per_step_seconds, max_workers) == expected

    def test_statements_that_do_not_overlap_run_on_one_claimer(self):
        from repro.optimizer.cost import choose_parallelism

        assert choose_parallelism(10, 1.0, 4, statements_overlap=False) == 1

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
