"""Contract: thread-safety smoke and exact accounting under concurrency."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from conformance_kit import groups_of
from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.query import AggregateQuery

N_THREADS = 4
QUERIES_PER_THREAD = 8


def view_query(step: int) -> AggregateQuery:
    dimension = ("region", "product")[step % 2]
    predicate = None if step % 4 < 2 else col("units") > 1.0
    return AggregateQuery(
        "conformance",
        (dimension,),
        (Aggregate("sum", "units"), Aggregate("count")),
        predicate,
    )


def test_concurrent_results_match_serial(backend):
    serial = [
        groups_of(
            backend.execute(view_query(step)),
            view_query(step).key_names[0],
            "sum(units)",
        )
        for step in range(QUERIES_PER_THREAD)
    ]

    def worker(_thread: int):
        out = []
        for step in range(QUERIES_PER_THREAD):
            result = backend.execute(view_query(step))
            out.append(groups_of(result, view_query(step).key_names[0], "sum(units)"))
        return out

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        results = list(pool.map(worker, range(N_THREADS)))

    for thread_results in results:
        assert len(thread_results) == len(serial)
        for got, want in zip(thread_results, serial):
            assert set(got) == set(want)
            for key in want:
                np.testing.assert_allclose(got[key], want[key])


def test_query_accounting_is_exact_under_concurrency(backend):
    backend.reset_counters()

    def worker(_thread: int):
        for step in range(QUERIES_PER_THREAD):
            backend.execute(view_query(step))

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(worker, range(N_THREADS)))

    assert backend.queries_executed == N_THREADS * QUERIES_PER_THREAD
    assert backend.statements_executed == N_THREADS * QUERIES_PER_THREAD


def test_concurrent_registration_and_reads(backend, contract_table):
    """Reads racing a derived-table registration stay consistent."""

    def reader(_thread: int):
        for _ in range(5):
            result = backend.execute(
                AggregateQuery("conformance", ("product",), (Aggregate("count"),))
            )
            assert sum(groups_of(result, "product", "count(*)").values()) == 16.0

    def writer(_thread: int):
        for i in range(5):
            backend.register_derived(contract_table.rename(f"scratch_{i}"))

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(reader, t) for t in range(3)]
        futures.append(pool.submit(writer, 0))
        for future in futures:
            future.result(timeout=60)
