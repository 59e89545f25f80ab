"""E11: parallel query execution (§3.3, last optimization).

"We observe that as the number of queries executed in parallel increases,
the total latency decreases at the cost of increased per query execution
time." The workload is a plan of independent per-dimension steps on the
SQLite backend (whose C-level execution releases the GIL, so threads give
real concurrency); we sweep the worker count and record both total and
mean per-query latency. Only the shape is asserted — every worker count
executes every query; the latencies depend on the machine's cores.

Plans run the way the engine runs them — :meth:`ExecutionPlan.run`, the
calling thread plus ``n_workers - 1`` threads of the process-wide bounded
pool, warmed before timing — and each query is timed at the backend seam
by a bench-local :class:`SqliteBackend` subclass. The sweep passes each
worker count to the plan directly. A served request gets no such choice:
its execute phase asks for ``min(n_workers, steps)`` claimers when a
step's price amortizes dispatch
(:func:`~repro.optimizer.cost.choose_parallelism`) and starts helpers
only on idle usable cores (:func:`~repro.optimizer.parallel.claim_cores`),
so the rows past the core count show what that cap avoids — per-query
latency rising as claimers contend for cores, and one more connection
and page cache per claimer. The sweep stops at :data:`MAX_TOTAL_WORKERS`,
the pool's bound.
"""

import threading
import time

import pytest

from repro.backends.sqlite import SqliteBackend
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.model.view import ViewSpec
from repro.optimizer.parallel import MAX_TOTAL_WORKERS, usable_cores
from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup

SWEEP = tuple(n for n in (1, 2, 4, 8) if n <= MAX_TOTAL_WORKERS)


class TimedSqliteBackend(SqliteBackend):
    """Records the wall-clock seconds of every ``execute`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.query_seconds: list[float] = []
        self._timings_lock = threading.Lock()

    def execute(self, query):
        start = time.perf_counter()
        try:
            return super().execute(query)
        finally:
            elapsed = time.perf_counter() - start
            with self._timings_lock:
                self.query_seconds.append(elapsed)

    def timed_run(self, plan: ExecutionPlan, n_workers: int) -> dict:
        """Run ``plan`` once; its total and per-query latencies."""
        with self._timings_lock:
            self.query_seconds = []
        start = time.perf_counter()
        plan.run(self, n_workers)
        total = time.perf_counter() - start
        with self._timings_lock:
            seconds = list(self.query_seconds)
        return {
            "queries": len(seconds),
            "total_s": round(total, 4),
            "mean_per_query_s": round(sum(seconds) / len(seconds), 4),
            "max_query_s": round(max(seconds), 4),
        }


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=60_000, n_dimensions=12, n_measures=2,
                        cardinality=10),
        seed=55,
    )
    backend = TimedSqliteBackend()
    backend.register_table(dataset.table)
    views = [ViewSpec(f"d{i}", "m0", "sum") for i in range(12)]
    plan = ExecutionPlan(
        [
            ExecutionStep(dataset.table.name, dataset.predicate,
                          (ViewGroup(v.dimension, (v,)),))
            for v in views
        ]
    )
    yield backend, plan
    backend.close()


def test_parallelism_sweep(benchmark, record_rows, workload):
    backend, plan = workload
    n_cores = usable_cores()

    def sweep():
        rows = []
        for n_workers in SWEEP:
            # A warmup run before timing: measurements see warm pool
            # threads and sqlite connections, the steady state a
            # long-lived service actually runs in.
            backend.timed_run(plan, n_workers)
            # Best-of-2 per configuration: thread scheduling on small
            # containers is noisy and a single run misleads.
            runs = [backend.timed_run(plan, n_workers) for _ in range(2)]
            best = min(runs, key=lambda run: run["total_s"])
            rows.append({"workers": n_workers, "cores": n_cores, **best})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("e11_parallelism", rows)
    assert all(row["queries"] == plan.total_queries() for row in rows), rows


def test_four_workers_latency(benchmark, workload):
    backend, plan = workload
    plan.run(backend, 4)  # warm the shared pool before timing
    benchmark.pedantic(lambda: plan.run(backend, 4), rounds=3, iterations=1)
