"""E11: parallel query execution (§3.3, last optimization).

"We observe that as the number of queries executed in parallel increases,
the total latency decreases at the cost of increased per query execution
time." The workload is a plan of independent per-dimension steps on the
SQLite backend (whose C-level execution releases the GIL, so threads give
real concurrency); we sweep the worker count and record both total and
mean per-step latency. Only the shape is asserted — every worker count
executes every step; the latencies depend on the machine's cores.

Executors run in the engines' production mode — bounded views over the
process-wide shared :class:`WorkerPool`, warmed before timing — so the
numbers reflect steady-state service throughput, not cold pool startup
(the old sweep built a throwaway executor per run and paid thread-spawn
cost inside every measurement).
"""

import os

import pytest

from repro.backends.sqlite import SqliteBackend
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.model.view import ViewSpec
from repro.optimizer.parallel import (
    DEFAULT_MAX_TOTAL_WORKERS,
    ParallelExecutor,
    configure_shared_pool,
    get_shared_pool,
)
from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup

#: The sweep goes up to 8 workers; on small machines the shared pool's
#: default bound (cpu-derived) would silently cap effective parallelism
#: below the row label, so widen it for the sweep and restore after.
SWEEP_MAX_WORKERS = 8


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=60_000, n_dimensions=12, n_measures=2,
                        cardinality=10),
        seed=55,
    )
    backend = SqliteBackend()
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
    n_cores = len(os.sched_getaffinity(0))
    pool = configure_shared_pool(
        max(SWEEP_MAX_WORKERS, DEFAULT_MAX_TOTAL_WORKERS)
    )

    def sweep():
        rows = []
        for n_workers in (1, 2, 4, 8):
            # One persistent shared-pool executor per configuration, with a
            # warmup run before timing: measurements see warm threads, the
            # steady state a long-lived service actually runs in.
            executor = ParallelExecutor(n_workers, pool=pool)
            executor.run(plan, backend)
            # Best-of-2 per configuration: thread scheduling on small
            # containers is noisy and a single run misleads.
            reports = [executor.run(plan, backend)[1] for _ in range(2)]
            best = min(reports, key=lambda r: r.total_seconds)
            rows.append(
                {
                    "workers": n_workers,
                    "cores": n_cores,
                    "pool_reuses": executor.pool_reuses,
                    "steps": len(best.step_seconds),
                    "total_s": round(best.total_seconds, 4),
                    "mean_per_step_s": round(best.mean_step_seconds, 4),
                    "max_step_s": round(best.max_step_seconds, 4),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    configure_shared_pool(DEFAULT_MAX_TOTAL_WORKERS)  # restore the default
    record_rows("e11_parallelism", rows)
    assert all(row["steps"] == len(plan.steps) for row in rows), rows


def test_four_workers_latency(benchmark, workload):
    backend, plan = workload
    executor = ParallelExecutor(4, pool=get_shared_pool())
    executor.run(plan, backend)  # warm the shared pool before timing
    benchmark.pedantic(lambda: executor.run(plan, backend), rounds=3, iterations=1)
