"""Unit tests: the ExecutionEngine layer (phases, cache, worker pool)."""

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.engine import (
    EnumeratePhase,
    ExecutePhase,
    ExecutionEngine,
    MetadataPhase,
    PlanPhase,
    PrunePhase,
    SamplePhase,
    ScorePhase,
    SelectPhase,
    SessionCache,
    default_phases,
)

from repro.engine.cache import sample_table_name

QUERY = RowSelectQuery("sales", col("product") == "Laserwave")
SAMPLE_NAME = sample_table_name("sales", 0.5, 7)


class TestDataVersion:
    def test_register_and_drop_bump(self, sales_table):
        backend = MemoryBackend()
        v0 = backend.data_version
        backend.register_table(sales_table)
        assert backend.data_version == v0 + 1
        backend.drop_table("sales")
        assert backend.data_version == v0 + 2

    def test_sqlite_bumps_too(self, sales_table):
        backend = SqliteBackend()
        try:
            v0 = backend.data_version
            backend.register_table(sales_table)
            backend.drop_table("sales")
            assert backend.data_version == v0 + 2
        finally:
            backend.close()

    def test_create_sample_does_not_bump(self, memory_backend):
        version = memory_backend.data_version
        memory_backend.create_sample("sales", "sales__seedb_sample", 0.5)
        assert memory_backend.data_version == version


class TestSessionCache:
    def test_schema_and_metadata_cached(self, memory_backend):
        from repro.metadata.collector import MetadataCollector

        cache = SessionCache(memory_backend)
        cache.sync()
        collector = MetadataCollector()
        first_schema = cache.schema("sales")
        first_metadata = cache.metadata(collector, "sales")
        misses = cache.stats.misses
        assert cache.schema("sales") is first_schema
        assert cache.metadata(collector, "sales") is first_metadata
        assert cache.stats.misses == misses
        assert cache.stats.hits >= 2

    def test_invalidated_when_data_version_changes(self, memory_backend, nan_table):
        cache = SessionCache(memory_backend)
        cache.sync()
        cache.schema("sales")
        memory_backend.register_table(nan_table)  # bumps data_version
        cache.sync()
        assert cache.stats.invalidations == 1
        # The entry was evicted: next lookup is a miss again.
        misses = cache.stats.misses
        cache.schema("sales")
        assert cache.stats.misses == misses + 1

    def test_sync_without_change_keeps_entries(self, memory_backend):
        cache = SessionCache(memory_backend)
        cache.sync()
        cache.row_count("sales")
        cache.sync()
        assert cache.stats.invalidations == 0
        cache.row_count("sales")
        assert cache.stats.hits == 1

    def test_sample_owned_and_dropped_on_close(self, memory_backend):
        cache = SessionCache(memory_backend)
        cache.sync()
        name = cache.sample("sales", 0.5, seed=7)
        assert memory_backend.has_table(name)
        assert cache.sample("sales", 0.5, seed=7) == name  # hit, no rebuild
        cache.close()
        assert not memory_backend.has_table(name)
        assert cache.stats.samples_dropped == 1

    def test_sample_rebuilt_when_knobs_change(self, memory_backend):
        cache = SessionCache(memory_backend)
        cache.sync()
        cache.sample("sales", 0.5, seed=7)
        misses = cache.stats.misses
        cache.sample("sales", 0.25, seed=7)
        assert cache.stats.misses == misses + 1

    def test_metadata_keyed_on_row_cap(self, memory_backend):
        """Stats from a capped materialization must not serve other caps."""
        from repro.metadata.collector import MetadataCollector

        cache = SessionCache(memory_backend)
        cache.sync()
        collector = MetadataCollector()
        capped = cache.metadata(collector, "sales", max_rows=5)
        full = cache.metadata(collector, "sales", max_rows=None)
        assert capped.stats.n_rows == 5
        assert full.stats.n_rows == 12


class TestPhases:
    def make_ctx(self, backend, config=None):
        return ExecutionEngine(backend).new_context(
            QUERY, config if config is not None else SeeDBConfig(), k=3
        )

    def test_default_phase_names_in_figure4_order(self):
        names = [phase.name for phase in default_phases()]
        assert names == [
            "metadata",
            "enumerate",
            "prune",
            "sample",
            "plan",
            "execute",
            "score",
            "select",
        ]

    def test_phases_compose_manually(self, memory_backend):
        """Each phase reads what the previous one wrote — run them by hand."""
        ctx = self.make_ctx(memory_backend)
        MetadataPhase().run(ctx)
        assert ctx.metadata is not None and ctx.base_table is not None
        EnumeratePhase().run(ctx)
        assert ctx.candidates
        PrunePhase().run(ctx)
        assert 0 < len(ctx.surviving) < len(ctx.candidates)
        SamplePhase().run(ctx)
        assert ctx.execution_table == "sales"  # table too small to sample
        PlanPhase().run(ctx)
        assert ctx.plan is not None and ctx.plan.steps
        ExecutePhase().run(ctx)
        assert {s for b in ctx.blocks for s in b.specs} == set(ctx.surviving)
        ScorePhase().run(ctx)
        assert set(ctx.scored) == set(ctx.surviving)
        SelectPhase().run(ctx)
        assert len(ctx.recommendations) == 3
        result = ctx.to_result()
        assert result.n_candidate_views == len(ctx.candidates)
        assert [(v.spec, v.utility) for v in result.recommendations] == [
            (v.spec, v.utility) for v in ctx.recommendations
        ]

    def test_engine_times_every_phase(self, memory_backend):
        engine = ExecutionEngine(memory_backend)
        ctx = engine.recommend(RecommendationRequest(QUERY, k=2).resolve())
        assert set(ctx.stopwatch.phases) == {
            phase.name for phase in default_phases()
        }

    def test_swapped_phase_list_runs(self, memory_backend):
        """A custom pipeline (no pruning, no sampling) is just a shorter list."""
        engine = ExecutionEngine(memory_backend)
        ctx = engine.new_context(QUERY, SeeDBConfig(), k=2)
        engine.run(
            [
                MetadataPhase(),
                EnumeratePhase(),
                PlanPhase(),
                ExecutePhase(),
                ScorePhase(),
                SelectPhase(),
            ],
            ctx,
        )
        # Without PrunePhase even predicate-dimension views execute.
        assert {s for b in ctx.blocks for s in b.specs} == set(ctx.candidates)
        assert len(ctx.recommendations) == 2


class TestSharedPool:
    def test_parallel_and_sequential_agree(self, memory_backend):
        """A plan's steps on four claimers give the blocks one claimer
        gives, in step order. The plan runs through ``plan.run``: the
        execute phase keeps a plan this small on one claimer."""
        config = SeeDBConfig(
            max_dims_per_query=1,
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
            prune_rare_access=False,
        )
        with SeeDB(memory_backend, config) as seedb:
            ctx = seedb.engine.recommend(
                RecommendationRequest(QUERY).resolve(config)
            )
        assert ctx.plan_decision.recommended_workers == 1
        assert len(ctx.plan.steps) > 1
        sequential = ctx.plan.run(memory_backend, 1)
        parallel = ctx.plan.run(memory_backend, 4)
        assert [(b.specs, b.groups) for b in parallel] == [
            (b.specs, b.groups) for b in sequential
        ]
        for ours, theirs in zip(parallel, sequential):
            np.testing.assert_array_equal(ours.target, theirs.target)
            np.testing.assert_array_equal(ours.comparison, theirs.comparison)


class TestCustomMetricInstances:
    """A custom metric registered under a name reaches every path: the
    multi-attribute views and the incremental strategy score with it."""

    @staticmethod
    def make_metric():
        from repro.metrics.jensen_shannon import JensenShannonDistance

        class DoubledJS(JensenShannonDistance):
            name = "js"  # shadows the registry name on purpose

            def _distance(self, p, q):
                return min(1.0, 2.0 * super()._distance(p, q))

        return DoubledJS()

    @staticmethod
    def multiview(backend, request, **config):
        with SeeDB(backend, SeeDBConfig(n_dimensions=2, **config)) as seedb:
            return seedb.recommend(request)

    def test_multiview_uses_the_registered_metric(
        self, memory_backend, register_metric
    ):
        # store and month are one-to-one: the correlation rule would
        # prune (store, month), the one pair the predicate leaves.
        request = RecommendationRequest(QUERY, k=1)
        stock = self.multiview(
            memory_backend, request, prune_correlated=False
        ).recommendations
        register_metric(self.make_metric())
        custom = self.multiview(
            memory_backend, request, prune_correlated=False
        ).recommendations
        assert custom[0].utility == pytest.approx(
            min(1.0, 2.0 * stock[0].utility)
        )

    @staticmethod
    def empty_backend():
        from repro.db.table import Table
        from repro.db.types import AttributeRole

        empty = Table.from_columns(
            "sales",
            {"store": [], "month": [], "product": [], "amount": []},
            roles={
                "store": AttributeRole.DIMENSION,
                "month": AttributeRole.DIMENSION,
                "product": AttributeRole.DIMENSION,
                "amount": AttributeRole.MEASURE,
            },
        )
        backend = MemoryBackend()
        backend.register_table(empty)
        return backend

    def test_multiview_empty_table_returns_no_views(self):
        """The pruning rules read an empty key set as constant: nothing
        executes and nothing is recommended."""
        result = self.multiview(
            self.empty_backend(), RecommendationRequest(QUERY, k=3)
        )
        assert result.recommendations == []
        assert result.n_executed_views == 0

    def test_multiview_empty_views_are_placeholders(self):
        """Unpruned, a view with no groups is a zero-utility placeholder,
        for multi-attribute views as for single-attribute ones."""
        request = RecommendationRequest(QUERY, k=3)
        no_pruning = {
            "prune_low_variance": False,
            "prune_cardinality": False,
            "prune_correlated": False,
        }
        backend = self.empty_backend()
        multi = self.multiview(backend, request, **no_pruning)
        with SeeDB(backend, SeeDBConfig(**no_pruning)) as seedb:
            single = seedb.recommend(request)
        for result in (multi, single):
            assert len(result.recommendations) == 3
            for view in result.recommendations:
                assert view.utility == 0.0 and view.groups == []

    def test_incremental_uses_the_registered_metric(
        self, memory_backend, register_metric
    ):
        request = RecommendationRequest(
            QUERY,
            k=100,
            strategy="incremental",
            options={
                "n_phases": 2,
                "aggregate_functions": ["sum"],
                "prune_low_variance": False,
                "prune_cardinality": False,
                "prune_correlated": False,
            },
        )
        with SeeDB(memory_backend) as seedb:
            stock = seedb.recommend(request)
        register_metric(self.make_metric())
        with SeeDB(memory_backend) as seedb:
            custom = seedb.recommend(request)
        assert stock.utilities
        assert set(custom.utilities) == set(stock.utilities)
        for spec, utility in stock.utilities.items():
            assert custom.utilities[spec] == pytest.approx(
                min(1.0, 2.0 * utility)
            )


class TestSampleLeak:
    def config(self):
        return SeeDBConfig(sample_fraction=0.5, min_rows_for_sampling=0)

    def test_no_sample_tables_survive_session(self, sales_table):
        """Regression: materialized samples must not outlive the session."""
        from repro.frontend.session import AnalystSession

        backend = MemoryBackend()
        backend.register_table(sales_table)
        with AnalystSession(backend, self.config()) as session:
            result = session.issue(QUERY)
            assert result.sample_fraction == 0.5
            assert backend.has_table(SAMPLE_NAME)
        leftovers = [
            name for name in list(backend.catalog) if "__seedb_sample" in name
        ]
        assert leftovers == []

    def test_seedb_close_drops_samples(self, sales_table):
        backend = MemoryBackend()
        backend.register_table(sales_table)
        with SeeDB(backend, self.config()) as seedb:
            seedb.recommend(RecommendationRequest(QUERY))
        assert not backend.has_table(SAMPLE_NAME)

    def test_sample_reused_not_regrown(self, sales_table):
        backend = MemoryBackend()
        backend.register_table(sales_table)
        seedb = SeeDB(backend, self.config())
        seedb.recommend(RecommendationRequest(QUERY))
        seedb.recommend(RecommendationRequest(QUERY))
        samples = [
            name for name in list(backend.catalog) if "__seedb_sample" in name
        ]
        assert samples == [SAMPLE_NAME]  # exactly one, reused
        seedb.close()
