"""Integration: the three strategies agree on one engine, and caching pays.

Equivalence: batch and incremental (run to completion, no pruning
opportunity) are phase lists over the same ExecutionEngine, and
multi-attribute views (``n_dimensions=2``) run either; on a shared
synthetic dataset the single-attribute paths must produce identical top-k
specs and utilities (within float tolerance), multi-attribute views must
match a direct two-query-per-view computation and agree across blocking,
incremental, streamed and served runs.

Caching: a second ``recommend()`` on an unchanged backend must execute
strictly fewer backend queries than the first (schema / metadata / sample
hits), and a ``data_version`` bump must invalidate and re-fetch.
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.core.space import enumerate_views
from repro.db.aggregates import Aggregate
from repro.db.query import AggregateQuery, RowSelectQuery
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic

NO_PRUNING = dict(
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
    prune_rare_access=False,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticConfig(n_rows=12_000, n_dimensions=4, n_measures=2,
                        cardinality=8, planted_dimensions=(0,)),
        seed=417,
    )


@pytest.fixture(scope="module")
def query(dataset):
    return RowSelectQuery(dataset.table.name, dataset.predicate)


class TestThreePathEquivalence:
    def test_batch_and_incremental_agree(self, dataset, query):
        """Full-phase incremental == batch: same utilities, same top-k."""
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        batch = SeeDB(
            backend, SeeDBConfig(metric="js", **NO_PRUNING)
        ).recommend(RecommendationRequest(query, k=5))

        incremental = SeeDB(
            backend, SeeDBConfig(metric="js", **NO_PRUNING)
        ).recommend(
            RecommendationRequest(
                query,
                k=5,
                strategy="incremental",
                options={"n_phases": 5, "delta": 1e-12},
            )
        )

        # Nothing was pruned: every executed view has a final utility.
        assert len(incremental.utilities) == incremental.n_executed_views
        assert set(batch.utilities) == set(incremental.utilities)
        for spec, utility in batch.utilities.items():
            assert incremental.utilities[spec] == pytest.approx(
                utility, rel=1e-9, abs=1e-12
            ), spec.label
        assert [v.spec for v in batch.recommendations] == [
            v.spec for v in incremental.recommendations
        ]
        for a, b in zip(batch.recommendations, incremental.recommendations):
            assert a.utility == pytest.approx(b.utility, rel=1e-9)

    def test_multiview_matches_direct_queries(self, dataset, query):
        """Engine-hosted multiview == independent per-view computation."""
        from repro.metrics.normalize import (
            align_series,
            canonical_key,
            normalize_distribution,
        )
        from repro.metrics.registry import get_metric

        backend = MemoryBackend()
        backend.register_table(dataset.table)
        views = [
            v
            for v in enumerate_views(
                dataset.table.schema, functions=("sum",), include_count=False,
                n_dimensions=2,
            )
            if not (set(v.keys) & dataset.predicate.referenced_columns())
        ]
        top = SeeDB(
            backend, SeeDBConfig(metric="js", n_dimensions=2, **NO_PRUNING)
        ).recommend(
            RecommendationRequest(
                query,
                k=len(views),
                options={"aggregate_functions": ["sum"], "include_count_views": False},
            ),
        ).recommendations
        assert {v.spec for v in top} == set(views)

        metric = get_metric("js")
        for scored in top:
            spec = scored.spec
            target = backend.execute(
                AggregateQuery(
                    query.table, spec.keys,
                    (Aggregate(spec.func, spec.measure),), query.predicate,
                )
            )
            comparison = backend.execute(
                AggregateQuery(
                    query.table, spec.keys,
                    (Aggregate(spec.func, spec.measure),), None,
                )
            )

            def keys(result):
                columns = [result.column(d) for d in spec.keys]
                return [
                    tuple(canonical_key(col[i]) for col in columns)
                    for i in range(result.num_rows)
                ]

            alias = Aggregate(spec.func, spec.measure).alias
            _groups, t, c = align_series(
                keys(target), target.column(alias),
                keys(comparison), comparison.column(alias),
            )
            expected = metric.distance(
                normalize_distribution(t), normalize_distribution(c)
            )
            assert scored.utility == pytest.approx(expected, rel=1e-9), spec.label

    def test_all_paths_rank_planted_dimension_first(self, dataset, query):
        """The planted deviation wins under every strategy."""
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        batch = SeeDB(
            backend, SeeDBConfig(**NO_PRUNING)
        ).recommend(RecommendationRequest(query, k=1))
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        incremental = seedb.recommend(
            RecommendationRequest(
                query, k=1, strategy="incremental", options={"n_phases": 8}
            )
        )
        planted = batch.recommendations[0].spec.dimension
        assert incremental.recommendations[0].spec.dimension == planted
        multi = SeeDB(
            backend, SeeDBConfig(n_dimensions=2, **NO_PRUNING)
        ).recommend(RecommendationRequest(query, k=1))
        assert planted in multi.recommendations[0].spec.keys


def build_backend(kind, table):
    backend = MemoryBackend() if kind == "memory" else SqliteBackend()
    backend.register_table(table)
    return backend


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestOneDriver:
    """Blocking, streamed and served runs are one ``ExecutionEngine.drive``."""

    def test_exhausted_streamed_and_served_finals_are_bit_identical(
        self, kind, dataset, query
    ):
        from repro.service import single_backend_service

        request = RecommendationRequest(
            query, k=4, strategy="incremental", options={"n_phases": 6}
        )
        backend = build_backend(kind, dataset.table)
        try:
            with SeeDB(backend) as seedb:
                exhausted = seedb.recommend(request)
                streamed = list(seedb.recommend_iter(request))[-1]
            with single_backend_service(backend) as service:
                served = list(service.recommend_stream(request))[-1]
        finally:
            backend.close()
        assert streamed.is_final and served.is_final
        for final in (streamed.result, served.result):
            assert [v.spec for v in final.recommendations] == [
                v.spec for v in exhausted.recommendations
            ]
            assert final.utilities == exhausted.utilities
            assert list(final.stopwatch.phases) == list(exhausted.stopwatch.phases)

    def test_batch_run_reports_observed_execute_seconds(
        self, kind, dataset, query
    ):
        backend = build_backend(kind, dataset.table)
        try:
            with SeeDB(backend) as seedb:
                result = seedb.recommend(RecommendationRequest(query, k=3))
        finally:
            backend.close()
        assert result.plan_decision is not None
        assert (
            result.plan_decision["observed_seconds"]
            == result.stopwatch.phases["execute"]
        )


class TestSessionCaching:
    def run_twice(self, backend, query, config):
        seedb = SeeDB(backend, config)
        before = backend.queries_executed
        seedb.recommend(RecommendationRequest(query))
        first = backend.queries_executed - before
        before = backend.queries_executed
        seedb.recommend(RecommendationRequest(query))
        second = backend.queries_executed - before
        return seedb, first, second

    def test_second_recommend_executes_fewer_queries(self, dataset, query):
        """Cache hit on schema/metadata/row-count: strictly fewer round trips."""
        backend = SqliteBackend()
        try:
            backend.register_table(dataset.table)
            seedb, first, second = self.run_twice(
                backend, query, SeeDBConfig(**NO_PRUNING)
            )
            assert second < first
            # The saving is exactly the metadata materialization round trip.
            assert first - second >= 1
            assert seedb.engine.cache.stats.hits >= 2
        finally:
            backend.close()

    def test_sampling_cache_avoids_rematerialization(self, dataset, query):
        backend = SqliteBackend()
        try:
            backend.register_table(dataset.table)
            config = SeeDBConfig(
                sample_fraction=0.3, min_rows_for_sampling=0, **NO_PRUNING
            )
            seedb, first, second = self.run_twice(backend, query, config)
            assert second < first  # no re-fetch, no re-count, no re-sample
            cache = seedb.engine.cache
            from repro.engine.cache import sample_table_name
            expected = sample_table_name(query.table, 0.3, 7)
            assert cache.live_samples == [expected]
            seedb.close()
            assert cache.live_samples == []
            assert not backend.has_table(expected)
        finally:
            backend.close()

    def test_identical_results_on_cache_hit(self, dataset, query):
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        seedb = SeeDB(backend)
        first = seedb.recommend(RecommendationRequest(query, k=4))
        second = seedb.recommend(RecommendationRequest(query, k=4))
        assert [v.spec for v in first.recommendations] == [
            v.spec for v in second.recommendations
        ]
        for spec, utility in first.utilities.items():
            assert second.utilities[spec] == pytest.approx(utility)

    def test_data_change_invalidates_and_recomputes(self, dataset, query):
        """A register_table bump must evict: results track the new data."""
        backend = MemoryBackend()
        backend.register_table(dataset.table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        first = seedb.recommend(RecommendationRequest(query, k=3))
        # Replace the table with a shuffled-measure variant: same schema,
        # different data -> utilities must change.
        shuffled = dataset.table.take(
            list(range(dataset.table.num_rows - 1, -1, -1)),
            name=dataset.table.name,
        )
        backend.register_table(shuffled, replace=True)
        second = seedb.recommend(RecommendationRequest(query, k=3))
        assert seedb.engine.cache.stats.invalidations == 1
        # Reversed row order preserves multisets per group, so utilities
        # match; what matters is the metadata was genuinely recollected.
        assert second.n_candidate_views == first.n_candidate_views

    def test_metadata_recollected_after_invalidation(self, dataset, query):
        backend = SqliteBackend()
        try:
            backend.register_table(dataset.table)
            seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
            seedb.recommend(RecommendationRequest(query))
            baseline = backend.queries_executed
            seedb.recommend(RecommendationRequest(query))
            cached_cost = backend.queries_executed - baseline
            backend.register_table(dataset.table, replace=True)  # bump
            baseline = backend.queries_executed
            seedb.recommend(RecommendationRequest(query))
            invalidated_cost = backend.queries_executed - baseline
            assert invalidated_cost > cached_cost  # metadata re-fetched
        finally:
            backend.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestMultiAttributePaths:
    """``SeeDBConfig(n_dimensions=2)`` reaches every path a config does:
    blocking, incremental, ``recommend_iter`` and a service slot agree,
    and each runs the whole pipeline (pruning, pricing, rendering)."""

    CONFIG = SeeDBConfig(n_dimensions=2)

    def test_every_path_gives_the_same_top_k(self, kind, dataset, query):
        from repro.service import single_backend_service

        blocking = RecommendationRequest(query, k=4)
        incremental = RecommendationRequest(
            query, k=4, strategy="incremental", options={"n_phases": 4}
        )
        backend = build_backend(kind, dataset.table)
        try:
            with SeeDB(backend, self.CONFIG) as seedb:
                results = {
                    "blocking": seedb.recommend(blocking),
                    "incremental": seedb.recommend(incremental),
                    "iter": list(seedb.recommend_iter(incremental))[-1].result,
                }
            with single_backend_service(backend, config=self.CONFIG) as service:
                results["service"] = service.recommend(blocking)
                results["stream"] = list(service.recommend_stream(incremental))[
                    -1
                ].result
        finally:
            backend.close()
        expected = results.pop("blocking")
        assert all(len(v.spec.keys) == 2 for v in expected.recommendations)
        assert expected.plan_decision is not None
        labels = [v.spec.label for v in expected.recommendations]
        for path, result in results.items():
            assert [v.spec.label for v in result.recommendations] == labels, path
            for got, want in zip(result.recommendations, expected.recommendations):
                assert got.utility == pytest.approx(want.utility, rel=1e-9), path
            assert result.plan_decision is not None, path

    def test_incremental_and_render_are_honoured(self, kind, dataset, query):
        request = RecommendationRequest(
            query,
            k=3,
            strategy="incremental",
            options={"n_phases": 4, "render": {"format": "vega-lite"}},
        )
        backend = build_backend(kind, dataset.table)
        try:
            with SeeDB(backend, self.CONFIG) as seedb:
                result = seedb.recommend(request)
        finally:
            backend.close()
        assert list(result.stopwatch.phases) == [
            "metadata", "enumerate", "prune", "sample", "plan", "execute",
            "score", "select", "render",
        ]
        assert len(result.visualizations) == 3
        assert {rule.rule for rule in result.prune_reports} >= {
            "variance", "cardinality", "correlation",
        }
