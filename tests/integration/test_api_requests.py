"""Integration tests for the declarative request API (ISSUE 4 acceptance).

One canonical :class:`RecommendationRequest` flows through SeeDB,
SeeDBService, AnalystSession, and HTTP; ``from_sql()`` + ``Reference.query()``
produce correct query-vs-query recommendations on both backends;
``recommend_iter()`` delivers monotonically-refining partial top-k whose
final round is bit-identical to the blocking result.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ApiError, PartialResult, RecommendationRequest, Reference
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.basic import BasicFramework
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.frontend.session import AnalystSession
from repro.service import single_backend_service
from repro.util.errors import ConfigError, QueryError

SQL = "SELECT * FROM orders WHERE product = 'p0'"


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, medium_table):
    if request.param == "memory":
        backend = MemoryBackend()
        backend.register_table(medium_table)
        yield backend
    else:
        backend = SqliteBackend()
        backend.register_table(medium_table)
        yield backend
        backend.close()


def assert_same_scores(result_a, result_b):
    """Bit-identical utilities and the same ranked specs."""
    assert [v.spec for v in result_a.recommendations] == [
        v.spec for v in result_b.recommendations
    ]
    assert [v.utility for v in result_a.recommendations] == [
        v.utility for v in result_b.recommendations
    ]
    assert result_a.utilities == result_b.utilities


class TestReferences:
    def test_query_vs_query_on_both_backends(self, backend):
        """Reference.query() compares two arbitrary selections correctly:
        utilities equal hand-computed distances of the two slices."""
        request = RecommendationRequest.from_sql(
            "SELECT * FROM orders WHERE product = 'p0'",
            reference=Reference.query("SELECT * FROM orders WHERE product = 'p1'"),
            k=3,
            dimensions=("region",),
            measures=("amount",),
        )
        with SeeDB(backend, SeeDBConfig(k=3)) as seedb:
            result = seedb.recommend(request)
            assert result.reference_description.startswith("query[")
            top = result.recommendations[0]

            # Hand-check one view against direct per-slice aggregation.
            from repro.metrics.normalize import align_series, normalize_distribution
            from repro.metrics.registry import get_metric
            from repro.optimizer.extract import table_series

            view = top.spec
            target = backend.execute(
                view.target_query("orders", col("product") == "p0")
            )
            reference = backend.execute(
                view.target_query("orders", col("product") == "p1")
            )
            t_keys, t_values = table_series(target, view.dimension, view.aggregate.alias)
            r_keys, r_values = table_series(
                reference, view.dimension, view.aggregate.alias
            )
            _groups, aligned_t, aligned_r = align_series(
                t_keys, t_values, r_keys, r_values
            )
            expected = get_metric("js").distance(
                normalize_distribution(aligned_t, SeeDBConfig().normalization),
                normalize_distribution(aligned_r, SeeDBConfig().normalization),
            )
            assert top.utility == pytest.approx(expected, abs=1e-12)

    def test_complement_flag_and_separate_paths_agree(self, backend):
        def request(combine):
            return RecommendationRequest.from_sql(
                SQL,
                reference=Reference.complement(),
                k=3,
                options={"combine_target_comparison": combine},
            )

        with SeeDB(backend) as seedb:
            result_flag = seedb.recommend(request(True))
            result_sep = seedb.recommend(request(False))
        for spec, utility in result_flag.utilities.items():
            assert utility == pytest.approx(
                result_sep.utilities[spec], abs=1e-12
            )

    def test_query_reference_vs_equivalent_complement(self, backend):
        """query(everything-else) ≡ complement — two spellings, one row set."""
        complement = RecommendationRequest.from_sql(
            SQL, reference=Reference.complement(), k=3
        )
        spelled_out = RecommendationRequest.from_sql(
            SQL,
            reference=Reference.query("SELECT * FROM orders WHERE product != 'p0'"),
            k=3,
        )
        # Separate-queries config: both references then issue WHERE-filtered
        # comparison queries over identical row sets.
        config = SeeDBConfig(k=3, combine_target_comparison=False)
        with SeeDB(backend, config) as seedb:
            a = seedb.recommend(complement)
            b = seedb.recommend(spelled_out)
        for spec, utility in a.utilities.items():
            assert utility == pytest.approx(b.utilities[spec], abs=1e-12)


def _served(method):
    def call(backend, table, given):
        with single_backend_service(backend) as service:
            return getattr(service, method)(given)

    return call


#: Every in-process entry point, as ``name -> call(backend, table, input)``.
ENTRY_POINTS = {
    "SeeDB.recommend": lambda b, t, given: SeeDB(b).recommend(given),
    "SeeDB.recommend_iter": lambda b, t, given: SeeDB(b).recommend_iter(given),
    "SeeDBService.submit": _served("submit"),
    "SeeDBService.recommend": _served("recommend"),
    "SeeDBService.recommend_stream": _served("recommend_stream"),
    "BasicFramework.recommend": lambda b, t, given: BasicFramework(b).recommend(
        given
    ),
}


class TestOneWayIn:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "given",
        [SQL, RowSelectQuery("orders", col("product") == "p0")],
        ids=["sql", "row_select_query"],
    )
    def test_non_request_input_is_a_typed_error(self, entry, given, medium_table):
        """Text and query objects are converted at the edges; behind them
        every entry point rejects them with the same typed ApiError."""
        from repro.api import ApiError

        backend = MemoryBackend()
        backend.register_table(medium_table)
        with pytest.raises(ApiError) as excinfo:
            ENTRY_POINTS[entry](backend, medium_table, given)
        assert excinfo.value.code == "invalid_value"
        assert excinfo.value.field == "request"


class TestSpecialisedRecommenders:
    def test_request_metric_honored_by_every_canonical_entry(self, medium_table):
        """Every recommender scores with the request's metric, not its
        constructor default — a caller would otherwise get silently wrong
        rankings."""
        backend = MemoryBackend()
        backend.register_table(medium_table)
        query = RowSelectQuery("orders", col("product") == "p0")
        request = RecommendationRequest(target=query, k=3, metric="euclidean")

        plain = RecommendationRequest(query, k=3)
        euclid_basic = BasicFramework(backend, metric="euclidean").recommend(plain)
        via_request = BasicFramework(backend).recommend(request)
        assert_same_scores(euclid_basic, via_request)

        multiview = SeeDBConfig(n_dimensions=2)
        with SeeDB(
            backend, multiview.with_overrides(metric="euclidean")
        ) as expected_rec:
            expected = expected_rec.recommend(plain)
        with SeeDB(backend, multiview) as request_rec:
            got = request_rec.recommend(request)
        assert_same_scores(expected, got)

        incremental = {"strategy": "incremental", "options": {"n_phases": 3}}
        bounded = RecommendationRequest(
            target=query, k=3, metric="total_variation", **incremental
        )
        with SeeDB(backend, SeeDBConfig(metric="total_variation")) as seedb:
            expected_inc = seedb.recommend(
                RecommendationRequest(query, k=3, **incremental)
            )
        with SeeDB(backend) as seedb:
            got_inc = seedb.recommend(bounded)
        assert_same_scores(expected_inc, got_inc)
        from repro.api import ApiError

        with pytest.raises(ApiError):
            SeeDB(backend).recommend(
                RecommendationRequest(target=query, metric="kl", **incremental)
            )


class TestProgressive:
    def test_stream_final_round_bit_identical_to_blocking(self, backend):
        request = RecommendationRequest.from_sql(
            SQL, k=3, strategy="incremental", options={"n_phases": 6}
        )
        with SeeDB(backend, SeeDBConfig(k=3)) as seedb:
            blocking = seedb.recommend(request)
            rounds = list(seedb.recommend_iter(request))
        assert all(isinstance(r, PartialResult) for r in rounds)
        partials, final = rounds[:-1], rounds[-1]
        assert final.is_final and final.result is not None
        assert not any(p.is_final for p in partials)
        # Partial rounds count up and carry non-empty top-k estimates.
        assert [p.round for p in partials] == list(range(1, len(partials) + 1))
        assert all(p.recommendations for p in partials)
        # Estimates refine monotonically toward the final answer: the last
        # partial round's estimates ARE the final utilities (same
        # accumulated state, same scorer), and pruning only shrinks the
        # candidate set.
        alive = [p.views_alive for p in partials]
        assert all(a >= b for a, b in zip(alive, alive[1:]))
        last = partials[-1]
        final_utilities = {v.spec: v.utility for v in final.result.recommendations}
        for view in last.recommendations[: len(final_utilities)]:
            if view.spec in final_utilities:
                assert view.utility == final_utilities[view.spec]
        # Bit-identical to the blocking incremental result.
        assert [(v.spec, v.utility) for v in final.result.recommendations] == [
            (v.spec, v.utility) for v in blocking.recommendations
        ]
        assert final.result.utilities == blocking.utilities

    def test_stream_with_query_reference(self, backend):
        request = RecommendationRequest.from_sql(
            "SELECT * FROM orders WHERE product = 'p0'",
            reference=Reference.query("SELECT * FROM orders WHERE product = 'p1'"),
            k=2,
            options={"n_phases": 4},
        )
        with SeeDB(backend) as seedb:
            rounds = list(seedb.recommend_iter(request))
            blocking = seedb.recommend(
                request if request.strategy == "incremental" else request
            )
        final = rounds[-1]
        assert final.is_final
        assert final.result.reference_description.startswith("query[")
        assert len(final.result.recommendations) == 2

    def test_service_stream_fans_out_one_execution(self, medium_table):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        backend = MemoryBackend()
        backend.register_table(medium_table)
        request = RecommendationRequest.from_sql(
            SQL, k=3, options={"n_phases": 4}
        )
        with single_backend_service(
            backend, SeeDBConfig(k=3), owned=True, max_workers=4
        ) as service:
            # The execution's first round waits until all four streams have
            # joined it: one that finished before a late subscriber arrived
            # would leave that subscriber an execution of its own.
            joined = threading.Barrier(5, timeout=30)
            engine = service.engine()
            inner = engine.recommend_iter

            def held_recommend_iter(resolved, **kwargs):
                joined.wait()
                yield from inner(resolved, **kwargs)

            engine.recommend_iter = held_recommend_iter

            def consume(_):
                stream = service.recommend_stream(request)
                joined.wait()
                return [(p.round, p.is_final) for p in stream]

            with ThreadPoolExecutor(max_workers=4) as pool:
                sequences = list(pool.map(consume, range(4)))
            assert all(sequence == sequences[0] for sequence in sequences)
            assert service.stats.streams == 4
            assert service.stats.executions == 1
            assert service.stats.coalesced == 3

    def test_stream_rejects_unbounded_metric_on_every_path(self, medium_table):
        """The legacy (SQL-string) stream path validates the bounded-metric
        precondition exactly like the request path — streaming always runs
        the incremental machinery, so an unbounded metric must be refused
        before execution, not silently pruned with an invalid bound."""
        from repro.api import ApiError

        backend = MemoryBackend()
        backend.register_table(medium_table)
        with single_backend_service(backend, SeeDBConfig(k=3)) as service:
            with pytest.raises(ApiError) as excinfo:
                next(
                    iter(
                        service.recommend_stream(
                            RecommendationRequest.from_sql(SQL, metric="kl")
                        )
                    )
                )
            assert excinfo.value.code == "invalid_value"
            with pytest.raises(ApiError):
                next(
                    iter(
                        service.recommend_stream(
                            RecommendationRequest.from_sql(SQL, metric="kl")
                        )
                    )
                )

    def test_unknown_backend_uses_wire_taxonomy(self, medium_table):
        from repro.api import ApiError

        backend = MemoryBackend()
        backend.register_table(medium_table)
        with single_backend_service(backend) as service:
            with pytest.raises(ApiError) as excinfo:
                service.recommend(RecommendationRequest.from_sql(SQL), backend="nope")
            assert excinfo.value.code == "unknown_backend"
            assert excinfo.value.field == "backend"

    def test_explicit_k_overrides_request_k_at_the_session_edge(self, medium_table):
        """``AnalystSession.issue`` is the one front end that still takes a
        ``k`` beside the request; it folds it in before the service sees it."""
        backend = MemoryBackend()
        backend.register_table(medium_table)
        query = RowSelectQuery("orders", col("product") == "p0")
        request = RecommendationRequest(target=query, k=2)
        with AnalystSession(backend) as session:
            assert len(session.issue(request, k=4).recommendations) == 4
            assert len(session.issue(request).recommendations) == 2

    def test_analyst_session_streams_and_records_history(self, backend):
        with single_backend_service(backend, SeeDBConfig(k=2)) as service:
            with AnalystSession(service=service) as session:
                rounds = list(session.issue_stream(SQL))
                assert rounds[-1].is_final
                assert session.last_result is rounds[-1].result


class TestViewSpaceFilters:
    def test_dimension_and_measure_filters_restrict_space(self, backend):
        request = RecommendationRequest.from_sql(
            "SELECT * FROM orders WHERE product = 'p0'",
            k=5,
            dimensions=("region", "quantity_band"),
            measures=("amount",),
        )
        with SeeDB(backend) as seedb:
            result = seedb.recommend(request)
        for view in result.utilities:
            assert view.dimension in ("region", "quantity_band")
            assert view.measure in (None, "amount")

    def test_count_is_not_a_measure_aggregate(self, memory_backend, sqlite_backend):
        """``count`` in aggregate_functions is rejected up front, alike on
        every backend and on the wire; count(*) views come from
        include_count_views, and COUNT(m) is the ``countv`` aggregate."""
        with pytest.raises(ConfigError, match="include_count_views"):
            SeeDBConfig(aggregate_functions=("count",))
        with pytest.raises(QueryError, match="countv"):
            Aggregate("count", "amount")
        request = RecommendationRequest(
            RowSelectQuery("sales", col("product") == "Laserwave"),
            options={"aggregate_functions": ["count"]},
        )
        wire = RecommendationRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        for backend in (memory_backend, sqlite_backend):
            for sent in (request, wire):
                with pytest.raises(ApiError) as raised:
                    SeeDB(backend).recommend(sent)
                assert (raised.value.code, raised.value.field) == (
                    "invalid_value",
                    "options",
                )
