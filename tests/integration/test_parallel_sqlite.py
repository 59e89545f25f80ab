"""A sqlite plan on several claimers: same answers, bounded cancels, and
connections bounded by the statements that ever ran at once.

The execute phase spreads a sqlite plan's steps over up to the usable
cores (:func:`repro.optimizer.cost.choose_parallelism`,
:func:`repro.optimizer.parallel.claim_cores`). The tests that go through
the engine pin the usable core count and the ``n_workers`` bound at two
or more, and the deadline test runs its plan on two claimers directly,
so the parallel path runs on any machine.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.optimizer import parallel as parallel_module
from repro.optimizer.parallel import MAX_TOTAL_WORKERS, _shared_pool, usable_cores
from repro.optimizer.plan import GroupByCombining, Planner, PlannerConfig
from repro.util.deadline import CancelToken, Deadline, cancel_scope
from repro.util.errors import DeadlineExceeded

N_ROWS = 20_000
DIMENSIONS = {"region": 5, "product": 7, "band": 3, "channel": 4}
MEASURES = tuple(f"m{i}" for i in range(8))
QUERY = RowSelectQuery("orders", col("band") == "b0")
PLAN_KINDS = [
    GroupByCombining.NONE,
    GroupByCombining.GROUPING_SETS,
    GroupByCombining.ROLLUP,
    GroupByCombining.AUTO,
]
#: How late after its deadline a parallel plan may raise: the progress
#: handler sees the deadline within a few tenths of a millisecond of VM
#: work; the rest is headroom for a loaded machine.
CANCEL_BOUND_SECONDS = 0.25


def make_table() -> Table:
    rng = np.random.default_rng(11)
    columns = {
        name: [f"{name[0]}{code}" for code in rng.integers(0, n, N_ROWS)]
        for name, n in DIMENSIONS.items()
    }
    for name in MEASURES:
        columns[name] = rng.gamma(2.0, 10.0, N_ROWS)
    roles = {name: AttributeRole.DIMENSION for name in DIMENSIONS}
    roles.update({name: AttributeRole.MEASURE for name in MEASURES})
    return Table.from_columns("orders", columns, roles=roles)


@pytest.fixture(scope="module")
def table() -> Table:
    return make_table()


@pytest.fixture
def cores(monkeypatch) -> int:
    """At least two usable cores, so the decision goes parallel; the
    configs below pass it as ``n_workers`` too, since the default bound
    was read from the real core count."""
    n = max(2, usable_cores())
    monkeypatch.setattr(parallel_module, "usable_cores", lambda: n)
    return n


class CountingSqlite(SqliteBackend):
    """Counts view statements in flight, and the most ever at once."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.finished = 0

    def _run(self, sql, logical_queries=1):
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            rows = super()._run(sql, logical_queries)
        finally:
            with self.lock:
                self.in_flight -= 1
        with self.lock:
            self.finished += 1
        return rows


def answers(result) -> tuple:
    """Top-k labels and every utility, compared bit for bit through repr."""
    return (
        [(view.spec.label, repr(view.utility)) for view in result.recommendations],
        sorted((spec.label, repr(u)) for spec, u in result.utilities.items()),
    )


class TestSameAnswers:
    @pytest.mark.parametrize("kind", PLAN_KINDS, ids=lambda kind: kind.value)
    def test_default_matches_one_worker_bit_for_bit(self, table, cores, kind):
        # Two dimensions per query at most: every kind plans two or more
        # steps, so the default run has something to spread.
        config = SeeDBConfig(
            groupby_combining=kind, max_dims_per_query=2, n_workers=cores
        )
        backend = SqliteBackend()
        try:
            backend.register_table(table)
            request = RecommendationRequest(QUERY, k=5)
            with SeeDB(backend, config) as seedb:
                parallel = seedb.recommend(request)
            with SeeDB(backend, config.with_overrides(n_workers=1)) as seedb:
                sequential = seedb.recommend(request)
        finally:
            backend.close()
        assert parallel.plan_decision["recommended_workers"] > 1
        assert sequential.plan_decision["recommended_workers"] == 1
        assert answers(parallel) == answers(sequential)


class TestDeadline:
    def test_expiry_inside_a_parallel_plan_stops_every_claimer(self, table):
        backend = CountingSqlite()
        try:
            backend.register_table(table)
            with SeeDB(backend) as seedb:
                views = seedb.engine.recommend(
                    RecommendationRequest(QUERY).resolve(seedb.config)
                ).surviving
            plan = Planner(PlannerConfig()).plan(
                views, "orders", QUERY.predicate, DIMENSIONS
            )
            assert len(plan.steps) >= 3
            start = time.monotonic()
            plan.run(backend, 2)
            full = time.monotonic() - start
            # Expire a quarter of the way into the same plan: statements
            # are then running on both claimers.
            token = CancelToken(Deadline.after(full / 4))
            finished_before = backend.finished
            with cancel_scope(token), pytest.raises(DeadlineExceeded):
                plan.run(backend, 2)
            late = time.monotonic() - token.deadline.expires_at
            in_flight_after = backend.in_flight
        finally:
            backend.close()
        assert late < CANCEL_BOUND_SECONDS
        assert in_flight_after == 0
        assert backend.max_in_flight == 2
        # Interrupted mid-plan: not every step's statement completed.
        assert backend.finished - finished_before < len(plan.steps)


class TestConnections:
    def test_connections_bounded_by_claimers_across_requests(self, table, cores):
        # Grow the shared pool to its bound first: a connection per pool
        # thread, not per statement in flight, would show up as more
        # connections than claimers.
        pool = _shared_pool()
        barrier = threading.Barrier(MAX_TOTAL_WORKERS)
        grown = [
            pool.submit(barrier.wait, timeout=10) for _ in range(MAX_TOTAL_WORKERS)
        ]
        for future in grown:
            future.result(timeout=10)
        backend = SqliteBackend()
        backend.register_table(table)
        claimers = set()
        # One scan per dimension: three steps, so up to three claimers.
        config = SeeDBConfig(n_workers=cores, groupby_combining=GroupByCombining.NONE)
        with SeeDB(backend, config) as seedb:
            for k in range(1, 51):
                result = seedb.recommend(RecommendationRequest(QUERY, k=k % 10 + 1))
                claimers.add(result.plan_decision["recommended_workers"])
        assert claimers == {min(cores, 3)}
        assert backend.open_connections <= min(cores, 3) + 1
        backend.close()
        assert backend.open_connections == 0
