"""Integration: the ``table`` reference's comparison sides, cached per data
version.

For the paper's whole-table reference (§2) the comparison side of a view
group does not depend on the predicate, so the engine cache
(``SessionCache.comparison``) computes it once per ``(table,
data_version)`` with one predicate-free query and a warm request issues
only its target queries. These tests hold the cache to its contract on
the memory and sqlite backends: a warm answer is the cold answer bit for
bit, a data change or a sample never serves another table's entry, a
request out of budget stores nothing, concurrent misses both answer, and
the entries stay under :data:`~repro.engine.cache.MAX_COMPARISON_CELLS`.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.api import RecommendationRequest, Reference
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.engine import cache as cache_module
from repro.optimizer.plan import GroupByCombining
from repro.testing.faults import (
    FaultInjector,
    FaultSpec,
    install_injector,
    uninstall_injector,
)
from repro.util.errors import DeadlineExceeded

BACKENDS = {"memory": MemoryBackend, "sqlite": SqliteBackend}
SHAPE = SyntheticConfig(n_rows=3_000, n_dimensions=6, n_measures=3, cardinality=8)
TABLE = "cached"


def make_table(seed=41):
    return generate_synthetic(SHAPE, seed=seed, table_name=TABLE).table


def predicates(n, seed=5):
    """``n`` distinct predicates shaped like the benchmark's warm lists:
    single equalities, then ORs and ANDs of two of them."""
    atoms = [
        (f"d{d}", f"d{d}=v{value}")
        for d in range(SHAPE.n_dimensions)
        for value in range(SHAPE.cardinality)
    ]
    rng = random.Random(seed)
    rng.shuffle(atoms)
    singles = [col(dim) == value for dim, value in atoms]
    by_dimension: dict = {}
    for dim, value in atoms:
        by_dimension.setdefault(dim, []).append(value)
    ors = [
        (col(dim) == values[i]) | (col(dim) == values[i + 1])
        for dim, values in by_dimension.items()
        for i in range(0, len(values) - 1, 2)
    ]
    ands = [
        (col(a) == x) & (col(b) == y)
        for (a, x), (b, y) in zip(atoms, atoms[1:])
        if a != b
    ]
    listed = singles + ors + ands
    assert len(listed) >= n
    return listed[:n]


def request(predicate, **options):
    return RecommendationRequest(RowSelectQuery(TABLE, predicate), k=3, options=options)


def answer(result):
    """Everything a result says about the data, as comparable bytes-exact
    values: labels in order, every utility, and every shown distribution."""
    return (
        [view.spec.label for view in result.recommendations],
        {spec.label: utility for spec, utility in result.utilities.items()},
        {
            spec.label: (
                tuple(view.groups),
                view.target_values.tobytes(),
                view.comparison_values.tobytes(),
                view.target_distribution.tobytes(),
                view.comparison_distribution.tobytes(),
            )
            for spec, view in result.all_scored.items()
        },
        result.plan_description,
    )


def n_steps(result):
    return int(result.plan_description.split(" ")[1])


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    backend = BACKENDS[request.param]()
    backend.register_table(make_table())
    yield backend
    backend.close()


class TestWarmEqualsCold:
    def test_a_hundred_predicates_answer_bit_identically(self, backend, monkeypatch):
        """Cold (a cache that stores nothing) and warm answers differ only
        in ``n_queries``: two per step, against one."""
        listed = predicates(100)
        with SeeDB(backend, SeeDBConfig(n_workers=1)) as seedb:
            with monkeypatch.context() as patch:
                patch.setattr(cache_module, "MAX_COMPARISON_CELLS", 0)
                cold = [seedb.recommend(request(p)) for p in listed]
                assert seedb.engine.cache.comparison_cells == 0
            for predicate in listed:
                seedb.recommend(request(predicate))
            hits = seedb.engine.cache.stats.comparison_hits
            warm = [seedb.recommend(request(p)) for p in listed]
            assert seedb.engine.cache.stats.comparison_hits > hits
        for cold_result, warm_result in zip(cold, warm):
            assert answer(warm_result) == answer(cold_result)
            steps = n_steps(warm_result)
            assert cold_result.n_queries == 2 * steps
            assert warm_result.n_queries == steps

    def test_complement_and_query_references_never_use_the_cache(self, backend):
        """Their comparison depends on the predicate: every request runs
        its own statements, and cold and warm answers agree bit for bit."""
        other = RowSelectQuery(TABLE, col("d1") != "d1=v3")
        with SeeDB(backend) as seedb:
            for reference in (Reference.complement(), Reference.query(other)):
                made = [
                    seedb.recommend(
                        RecommendationRequest(
                            RowSelectQuery(TABLE, col("d0") == "d0=v2"),
                            k=3,
                            reference=reference,
                        )
                    )
                    for _ in range(2)
                ]
                assert answer(made[0]) == answer(made[1])
                assert made[0].n_queries == made[1].n_queries
            stats = seedb.engine.cache.stats
            assert stats.comparison_hits == stats.comparison_misses == 0
            assert seedb.engine.cache.comparison_cells == 0

    def test_separate_sides_run_both_statements_every_request(self, backend):
        """``combine_target_comparison=False`` is the unshared baseline:
        nothing is cached, and its answers equal the cached ones."""
        config = SeeDBConfig(combine_target_comparison=False)
        predicate = col("d2") == "d2=v1"
        with SeeDB(backend, config) as separate:
            runs = [separate.recommend(request(predicate)) for _ in range(2)]
            assert separate.engine.cache.stats.comparison_misses == 0
            with SeeDB(backend) as shared:
                shared.recommend(request(predicate))
                warm = shared.recommend(request(predicate))
        assert runs[0].n_queries == runs[1].n_queries == 2 * n_steps(runs[1])
        assert answer(runs[1])[0] == answer(warm)[0]
        assert warm.utilities == pytest.approx(runs[1].utilities, rel=0, abs=1e-9)


class TestNothingStaleIsServed:
    def test_a_replaced_table_answers_like_a_fresh_session(self, backend):
        predicate = col("d3") == "d3=v4"
        with SeeDB(backend) as seedb:
            seedb.recommend(request(predicate))
            backend.register_table(make_table(seed=42), replace=True)
            after = seedb.recommend(request(predicate))
        fresh_backend = type(backend)()
        try:
            fresh_backend.register_table(make_table(seed=42))
            with SeeDB(fresh_backend) as fresh:
                expected = fresh.recommend(request(predicate))
        finally:
            fresh_backend.close()
        assert answer(after) == answer(expected)

    def test_a_sample_and_its_base_table_keep_their_own_sides(self, backend):
        predicate = col("d4") == "d4=v0"

        def sampled_config():
            return SeeDBConfig(sample_fraction=0.5, min_rows_for_sampling=0)

        with SeeDB(backend, sampled_config()) as seedb:
            sampled_first = seedb.recommend(request(predicate))
        with SeeDB(backend) as seedb:
            exact_first = seedb.recommend(request(predicate))
            with SeeDB(backend, sampled_config()) as sampling:
                sampled_warm = sampling.recommend(request(predicate))
            exact_warm = seedb.recommend(request(predicate))
        assert sampled_warm.sample_fraction == 0.5
        assert answer(sampled_warm) == answer(sampled_first)
        assert answer(exact_warm) == answer(exact_first)
        assert answer(sampled_warm)[1] != answer(exact_warm)[1]


class TestMisses:
    @pytest.fixture(autouse=True)
    def clean_injector(self):
        yield
        uninstall_injector()

    def test_a_deadline_expiring_during_a_miss_stores_nothing(self, backend):
        predicate = col("d5") == "d5=v6"
        with SeeDB(backend, SeeDBConfig(n_workers=1)) as seedb:
            # Warm the metadata without caching a comparison side.
            seedb.recommend(
                RecommendationRequest(
                    RowSelectQuery(TABLE, predicate), k=3,
                    reference=Reference.complement(),
                )
            )
            cache = seedb.engine.cache
            assert cache.comparison_cells == 0
            # The first step's target statement runs; its comparison
            # statement stalls past the deadline and then completes.
            install_injector(
                FaultInjector(
                    [FaultSpec("backend.execute", "stall", delay_s=0.5,
                               after=1, limit=1)]
                )
            )
            with pytest.raises(DeadlineExceeded):
                seedb.recommend(request(predicate, deadline_ms=200))
            assert cache.comparison_cells == 0
            uninstall_injector()
            result = seedb.recommend(request(predicate))
            assert cache.comparison_cells > 0
            assert result.n_queries == 2 * n_steps(result)

    def test_two_threads_missing_one_entry_both_answer(self, backend):
        """Both requests run each comparison statement at once (a barrier
        holds the first until the second arrives), so the cache's lock is
        not held across a statement; both answers are the single-thread
        one, and one entry per step is kept."""
        predicate = col("d0") == "d0=v5"
        barrier = threading.Barrier(2, timeout=20)
        execute = backend.execute

        def meet_on_comparisons(run):
            def wrapped(query):
                if query.predicate is None:
                    barrier.wait()
                return run(query)

            return wrapped

        expected_backend = type(backend)()
        try:
            expected_backend.register_table(make_table())
            config = SeeDBConfig(n_workers=1, groupby_combining=GroupByCombining.ROLLUP)
            with SeeDB(expected_backend, config) as alone:
                expected = alone.recommend(request(predicate))
        finally:
            expected_backend.close()

        config = SeeDBConfig(n_workers=1, groupby_combining=GroupByCombining.ROLLUP)
        results, errors = [], []
        with SeeDB(backend, config) as seedb:
            seedb.recommend(
                RecommendationRequest(
                    RowSelectQuery(TABLE, predicate), k=3,
                    reference=Reference.complement(),
                )
            )
            backend.execute = meet_on_comparisons(execute)

            def run():
                try:
                    results.append(seedb.recommend(request(predicate)))
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = seedb.engine.cache.stats
            steps = n_steps(expected)
            assert stats.comparison_misses == 2 * steps
            cells = seedb.engine.cache.comparison_cells
            backend.execute = execute
            warm = seedb.recommend(request(predicate))
            assert seedb.engine.cache.comparison_cells == cells
        assert not errors
        assert len(results) == 2
        for result in results + [warm]:
            assert answer(result) == answer(expected)
        assert warm.n_queries == steps

    def test_many_threads_keep_the_cell_count_exact(self, backend, monkeypatch):
        """More requesting threads than cores, a tiny switch interval and a
        bound that keeps evicting: the cell count stays the sum of what
        the entries hold (a lost update would break it), and every answer
        is the single-thread one."""
        listed = predicates(12, seed=3)
        config = SeeDBConfig(n_workers=2)
        with SeeDB(backend, config) as alone:
            expected = [answer(alone.recommend(request(p))) for p in listed]
            one_plan = alone.engine.cache.comparison_cells // len(listed) + 1
        monkeypatch.setattr(cache_module, "MAX_COMPARISON_CELLS", 3 * one_plan)
        errors, mismatches = [], []
        with SeeDB(backend, config) as seedb:

            def run(offset):
                try:
                    for index in range(len(listed)):
                        index = (index + offset) % len(listed)
                        got = answer(seedb.recommend(request(listed[index])))
                        if got != expected[index]:
                            mismatches.append(index)
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=run, args=(n,)) for n in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            cache = seedb.engine.cache
            held = sum(cells for _side, cells in cache._comparisons.values())
            assert cache.comparison_cells == held <= 3 * one_plan
        assert not errors and not mismatches

    def test_the_cache_stays_under_its_cell_bound(self, backend, monkeypatch):
        listed = predicates(30, seed=9)
        with SeeDB(backend) as seedb:
            cache = seedb.engine.cache
            seedb.recommend(request(listed[0]))
            one_plan = cache.comparison_cells
            bound = one_plan + one_plan // 2
            monkeypatch.setattr(cache_module, "MAX_COMPARISON_CELLS", bound)
            answers = []
            for predicate in listed:
                answers.append(answer(seedb.recommend(request(predicate))))
                assert 0 < cache.comparison_cells <= bound
            assert cache.stats.comparison_misses > len(cache._comparisons)
            # Evicted entries are recomputed to the same bits.
            again = [answer(seedb.recommend(request(p))) for p in listed]
        assert again == answers

    def test_an_entry_over_the_bound_is_not_kept(self, backend, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_COMPARISON_CELLS", 1)
        with SeeDB(backend) as seedb:
            first = seedb.recommend(request(col("d1") == "d1=v1"))
            second = seedb.recommend(request(col("d1") == "d1=v1"))
            assert seedb.engine.cache.comparison_cells == 0
        assert first.n_queries == second.n_queries == 2 * n_steps(first)
        assert answer(first) == answer(second)
