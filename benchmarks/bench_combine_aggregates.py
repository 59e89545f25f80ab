"""E8: combining multiple aggregates (§3.3, optimization 2).

"SEEDB combines all view queries with the same group-by attribute into a
single query. This rewriting provides a speed up linear in the number of
aggregate attributes." We sweep the number of measures per dimension and
compare one-query-per-view against one-combined-query-per-dimension:
query count drops from m to 1 (asserted), and the recorded latency ratio
shows the saving growing with m.
"""

import time

import pytest

from repro.backends.memory import MemoryBackend
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.model.view import ViewSpec
from repro.optimizer.plan import ExecutionPlan, ExecutionStep, ViewGroup


@pytest.fixture(scope="module")
def workload():
    dataset = generate_synthetic(
        SyntheticConfig(n_rows=100_000, n_dimensions=1, n_measures=12,
                        cardinality=16),
        seed=7,
    )
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    return backend, dataset


def plans_for(n_measures: int, predicate):
    views = tuple(ViewSpec("d0", f"m{i}", "sum") for i in range(n_measures))
    one_per_view = ExecutionPlan(
        [ExecutionStep("synthetic", predicate, (ViewGroup("d0", (v,)),)) for v in views]
    )
    combined = ExecutionPlan(
        [ExecutionStep("synthetic", predicate, (ViewGroup("d0", views),))]
    )
    return one_per_view, combined


def test_aggregate_combining_sweep(benchmark, record_rows, workload):
    backend, dataset = workload
    # Dictionary-encode d0 (Table.codes) before timing: otherwise the m=1
    # row pays the one-off encoding and its ratio reads several times high.
    plans_for(1, dataset.predicate)[1].run(backend)

    def sweep():
        rows = []
        for n_measures in (1, 2, 4, 8, 12):
            separate, combined = plans_for(n_measures, dataset.predicate)
            start = time.perf_counter()
            separate.run(backend)
            separate_seconds = time.perf_counter() - start
            start = time.perf_counter()
            combined.run(backend)
            combined_seconds = time.perf_counter() - start
            rows.append(
                {
                    "n_aggregates": n_measures,
                    "separate_queries": separate.total_queries(),
                    "combined_queries": combined.total_queries(),
                    "separate_s": round(separate_seconds, 5),
                    "combined_s": round(combined_seconds, 5),
                    "speedup": round(separate_seconds / combined_seconds, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows("e8_combine_aggregates", rows)
    # Query count is m -> 1 by construction.
    assert rows[0]["separate_queries"] == 1
    assert rows[-1]["separate_queries"] == 12
    assert all(row["combined_queries"] == 1 for row in rows)


def test_combined_query_latency(benchmark, workload):
    backend, dataset = workload
    _separate, combined = plans_for(12, dataset.predicate)
    benchmark.pedantic(lambda: combined.run(backend), rounds=3, iterations=1)
