"""Unit tests: the SeeDBService layer (scheduling, coalescing, caching)."""

import threading

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.engine import EngineCache
from repro.service import SeeDBService, single_backend_service
from repro.util.errors import ConfigError, QueryError

QUERY = RowSelectQuery("sales", col("product") == "Laserwave")
REQUEST = RecommendationRequest(QUERY)
SQL = "SELECT * FROM sales WHERE product = 'Laserwave'"


class TestBackendRegistry:
    def test_duplicate_name_rejected(self, memory_backend):
        service = SeeDBService()
        service.register_backend("a", memory_backend)
        with pytest.raises(ConfigError, match="already registered"):
            service.register_backend("a", memory_backend)
        service.close()

    def test_unknown_backend_rejected(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            with pytest.raises(QueryError, match="no backend named"):
                service.recommend(REQUEST, backend="nope")

    def test_closed_service_rejects_requests(self, memory_backend):
        service = single_backend_service(memory_backend)
        service.close()
        with pytest.raises(QueryError, match="closed"):
            service.submit(REQUEST)

    def test_multiple_backends_serve_independently(self, sales_table):
        a, b = MemoryBackend(), MemoryBackend()
        a.register_table(sales_table)
        b.register_table(sales_table)
        service = SeeDBService()
        service.register_backend("a", a)
        service.register_backend("b", b, config=SeeDBConfig(k=1))
        try:
            result_a = service.recommend(REQUEST, backend="a")
            result_b = service.recommend(REQUEST, backend="b")
            assert len(result_b.recommendations) == 1
            assert [v.spec for v in result_b.recommendations] == [
                v.spec for v in result_a.recommendations[:1]
            ]
        finally:
            service.close()


    def test_explicit_backend_argument_beats_the_request_field(self, sales_table):
        """Routing has one rule — explicit argument, else ``request.backend``,
        else the default — and no backend *name* doubles as "not given"."""
        default, other = MemoryBackend(), MemoryBackend()
        default.register_table(sales_table)
        other.register_table(sales_table)
        service = SeeDBService(result_cache_size=0)
        service.register_backend("default", default)
        service.register_backend("other", other)
        routed = RecommendationRequest(QUERY, backend="other")
        try:
            service.recommend(routed, backend="default")
            assert default.queries_executed > 0
            assert other.queries_executed == 0
            service.recommend(routed)  # no argument: the request's field
            assert other.queries_executed > 0
            before = default.queries_executed
            service.recommend(REQUEST)  # neither: the default backend
            assert default.queries_executed > before
        finally:
            service.close()


class TestServiceResults:
    def test_matches_direct_facade(self, memory_backend):
        direct = SeeDB(memory_backend).recommend(REQUEST)
        with single_backend_service(memory_backend) as service:
            served = service.recommend(REQUEST)
        assert [v.spec for v in served.recommendations] == [
            v.spec for v in direct.recommendations
        ]
        for spec, utility in direct.utilities.items():
            assert served.utilities[spec] == utility  # bit-identical

    def test_sql_and_query_objects_share_cache_entries(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            first = service.recommend(RecommendationRequest.from_sql(SQL))
            second = service.recommend(REQUEST)
            # The SQL string resolves to the same canonical request: the
            # second call is a result-cache hit, not a new execution.
            assert service.stats.executions == 1
            assert service.stats.result_cache_hits == 1
            assert second is first

    def test_error_propagates_to_waiter(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            future = service.submit(
                RecommendationRequest(RowSelectQuery("missing_table"))
            )
            with pytest.raises(Exception):
                future.result(timeout=10)
            assert service.stats.failed == 1


class TestCoalescing:
    def make_service(self, backend, **kwargs):
        kwargs.setdefault("result_cache_size", 0)  # isolate coalescing
        return single_backend_service(backend, **kwargs)

    def test_identical_in_flight_requests_share_one_execution(
        self, memory_backend
    ):
        service = self.make_service(memory_backend, max_workers=4)
        engine = service.engine()
        release = threading.Event()
        calls = []
        inner = engine.recommend

        def slow_recommend(resolved, **kwargs):
            calls.append(resolved)
            release.wait(timeout=10)
            return inner(resolved, **kwargs)

        # The service executes through the engine's resolved-request entry
        # point; stalling it holds the first request in flight.
        engine.recommend = slow_recommend
        try:
            first = service.submit(REQUEST)
            while not calls:  # the first request is on a worker thread
                pass
            joiners = [service.submit(REQUEST) for _ in range(5)]
            assert all(f is first for f in joiners)
            release.set()
            results = [f.result(timeout=10) for f in [first, *joiners]]
            assert len(calls) == 1
            assert service.stats.coalesced == 5
            assert service.stats.executions == 1
            assert all(r is results[0] for r in results)
        finally:
            release.set()
            service.close()

    def test_coalescing_disabled_executes_independently(self, memory_backend):
        service = self.make_service(
            memory_backend, coalesce_requests=False, max_workers=4
        )
        try:
            futures = [service.submit(REQUEST) for _ in range(3)]
            results = [f.result(timeout=10) for f in futures]
            assert service.stats.coalesced == 0
            assert service.stats.executions == 3
            utilities = [
                sorted(r.utilities.items(), key=lambda kv: kv[0])
                for r in results
            ]
            assert utilities[0] == utilities[1] == utilities[2]
        finally:
            service.close()

    def test_different_k_does_not_coalesce(self, memory_backend):
        service = self.make_service(memory_backend)
        try:
            a = service.recommend(RecommendationRequest(QUERY, k=2))
            b = service.recommend(RecommendationRequest(QUERY, k=3))
            assert service.stats.executions == 2
            assert len(a.recommendations) == 2
            assert len(b.recommendations) == 3
        finally:
            service.close()


class TestResultCache:
    def test_repeat_request_served_from_cache(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            first = service.recommend(REQUEST)
            second = service.recommend(REQUEST)
            assert second is first
            assert service.stats.result_cache_hits == 1
            assert service.stats.executions == 1

    def test_data_change_retires_cached_results(self, memory_backend, nan_table):
        with single_backend_service(memory_backend) as service:
            service.recommend(REQUEST)
            memory_backend.register_table(nan_table)  # bumps data_version
            service.recommend(REQUEST)
            assert service.stats.result_cache_hits == 0
            assert service.stats.executions == 2

    def test_cache_disabled_reexecutes(self, memory_backend):
        with single_backend_service(
            memory_backend, result_cache_size=0
        ) as service:
            service.recommend(REQUEST)
            service.recommend(REQUEST)
            assert service.stats.result_cache_hits == 0
            assert service.stats.executions == 2

    def test_lru_eviction_bounds_entries(self, memory_backend):
        with single_backend_service(
            memory_backend, result_cache_size=2
        ) as service:
            for k in (1, 2, 3):
                service.recommend(RecommendationRequest(QUERY, k=k))
            assert service.snapshot()["result_cache_entries"] == 2
            # k=1 was evicted (least recently used), k=3 still cached.
            service.recommend(RecommendationRequest(QUERY, k=3))
            assert service.stats.result_cache_hits == 1
            service.recommend(RecommendationRequest(QUERY, k=1))
            assert service.stats.executions == 4

    def test_stats_invariant(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            for _ in range(3):
                service.recommend(REQUEST)
            stats = service.stats
            assert stats.requests == (
                stats.executions + stats.coalesced + stats.result_cache_hits
            )


class TestSnapshot:
    def test_snapshot_shape(self, memory_backend):
        with single_backend_service(memory_backend) as service:
            service.recommend(REQUEST)
            snapshot = service.snapshot()
        assert snapshot["requests"] == 1
        assert snapshot["in_flight"] == 0
        assert snapshot["coalescing_enabled"] is True
        backend_stats = snapshot["backends"]["default"]
        assert backend_stats["backend"] == "memory"
        assert backend_stats["queries_executed"] > 0
        assert 0.0 <= backend_stats["engine_cache"]["hit_rate"] <= 1.0


class TestOwnership:
    def test_owned_sqlite_backend_closed_with_service(self, sales_table, tmp_path):
        import os

        backend = SqliteBackend()
        path = backend._path
        backend.register_table(sales_table)
        service = single_backend_service(backend, owned=True)
        service.recommend(REQUEST)
        assert backend.open_connections >= 1
        service.close()
        assert backend.open_connections == 0
        assert not os.path.exists(path)

    def test_unowned_backend_left_open(self, memory_backend):
        service = single_backend_service(memory_backend)
        service.recommend(REQUEST)
        service.close()
        assert memory_backend.has_table("sales")


class TestSessionServiceJoining:
    def test_session_rejects_config_with_service(self, memory_backend):
        from repro.frontend.session import AnalystSession

        with single_backend_service(memory_backend) as service:
            with pytest.raises(QueryError, match="not both"):
                AnalystSession(config=SeeDBConfig(k=1), service=service)

    def test_closed_service_request_fails_fast_not_hangs(self, memory_backend):
        """Regression: a submit racing close() resolves with an error
        instead of stranding waiters on a never-completed future."""
        service = single_backend_service(memory_backend)
        service._pool.shutdown(wait=True)  # simulate close() winning the race
        future = service.submit(REQUEST)
        with pytest.raises(QueryError, match="closed while scheduling"):
            future.result(timeout=10)
        service._closed = True  # finish the teardown by hand


class TestEngineCacheSharing:
    def test_engines_on_one_backend_share_a_cache(self, memory_backend):
        from repro.engine.engine import ExecutionEngine

        a = ExecutionEngine(memory_backend)
        b = ExecutionEngine(memory_backend)
        try:
            assert a.cache is b.cache
            assert isinstance(a.cache, EngineCache)
            assert a.cache.leases == 2
        finally:
            a.close()
            b.close()
        assert EngineCache.shared_for(memory_backend) is None

    def test_last_lease_drops_samples(self, memory_backend):
        from repro.engine.engine import ExecutionEngine

        config = SeeDBConfig(sample_fraction=0.5, min_rows_for_sampling=0)
        a = SeeDB(memory_backend, config)
        b = SeeDB(memory_backend, config)
        a.recommend(REQUEST)
        samples = a.engine.cache.live_samples
        assert samples and all(memory_backend.has_table(s) for s in samples)
        a.close()  # b still holds the cache: samples survive
        assert all(memory_backend.has_table(s) for s in samples)
        b.close()
        assert not any(memory_backend.has_table(s) for s in samples)

    def test_double_close_does_not_steal_anothers_lease(self, memory_backend):
        """Regression: context-manager exit after an explicit close must
        not decrement the lease count twice and tear down a cache a
        sibling engine still uses."""
        from repro.engine.engine import ExecutionEngine

        survivor = ExecutionEngine(memory_backend)
        with ExecutionEngine(memory_backend) as doomed:
            assert survivor.cache.leases == 2
            doomed.close()  # explicit close, then __exit__ closes again
        assert survivor.cache.leases == 1
        assert EngineCache.shared_for(memory_backend) is survivor.cache
        survivor.close()

    def test_separate_backends_get_separate_caches(self, sales_table):
        from repro.engine.engine import ExecutionEngine

        a_backend, b_backend = MemoryBackend(), MemoryBackend()
        a_backend.register_table(sales_table)
        b_backend.register_table(sales_table)
        a = ExecutionEngine(a_backend)
        b = ExecutionEngine(b_backend)
        try:
            assert a.cache is not b.cache
        finally:
            a.close()
            b.close()
