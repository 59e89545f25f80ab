"""Progressive delivery: time-to-first-recommendation vs full-batch latency.

The point of ``recommend_iter()`` / ``POST /recommend/stream`` is that an
analyst sees a useful top-k long before the full pipeline finishes
(§1: "analysis must happen in real-time"). Measured per workload size:

* ``first_round_latency_s`` — wall-clock until the first
  :class:`~repro.api.PartialResult` arrives (the stream's "time to first
  recommendation");
* ``stream_total_latency_s`` — until the final round (full incremental
  execution, delivered progressively);
* ``batch_latency_s`` — the blocking batch ``recommend()`` for the same
  request;
* ``first_round_topk_precision`` — how much of the definitive top-k the
  first round already gets right.

Asserts the stream's shape — one round per phase plus the definitive
final round — and records the latencies without asserting on them.
"""

import time

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery

K = 5
N_PHASES = 10
WORKLOAD_SIZES = (60_000, 150_000)


@pytest.fixture(scope="module")
def workloads():
    return [
        (
            n_rows,
            generate_synthetic(
                SyntheticConfig(
                    n_rows=n_rows,
                    n_dimensions=8,
                    n_measures=2,
                    cardinality=12,
                    planted_dimensions=(0, 4),
                ),
                seed=907,
            ),
        )
        for n_rows in WORKLOAD_SIZES
    ]


def run_once(seedb, request):
    """One streamed run: (first-round latency, total latency, rounds)."""
    start = time.perf_counter()
    first_latency = None
    rounds = []
    for partial in seedb.recommend_iter(request):
        if first_latency is None:
            first_latency = time.perf_counter() - start
        rounds.append(partial)
    total = time.perf_counter() - start
    return first_latency, total, rounds


def measure(n_rows, dataset):
    backend = MemoryBackend()
    backend.register_table(dataset.table)
    request = RecommendationRequest(
        target=RowSelectQuery(dataset.table.name, dataset.predicate),
        k=K,
        options={"n_phases": N_PHASES},
    )
    with SeeDB(backend, SeeDBConfig(k=K)) as seedb:
        # Warm the engine cache so both paths start from the same state.
        seedb.recommend(request)
        batch_start = time.perf_counter()
        seedb.recommend(request)
        batch_latency = time.perf_counter() - batch_start
        first_latency, stream_total, rounds = run_once(seedb, request)

    final = rounds[-1]
    assert final.is_final
    # Every phase yields a round, plus the definitive final round.
    assert len(rounds) == N_PHASES + 1
    definitive = {view.spec for view in final.result.recommendations}
    first_topk = {view.spec for view in rounds[0].recommendations}
    precision = len(definitive & first_topk) / max(len(definitive), 1)
    return {
        "n_rows": n_rows,
        "n_phases": N_PHASES,
        "first_round_latency_s": round(first_latency, 4),
        "stream_total_latency_s": round(stream_total, 4),
        "batch_latency_s": round(batch_latency, 4),
        "speedup_to_first": round(batch_latency / first_latency, 2),
        "first_round_topk_precision": round(precision, 2),
        "rounds_delivered": len(rounds),
    }


def test_time_to_first_recommendation(benchmark, record_rows, workloads):
    rows = benchmark.pedantic(
        lambda: [measure(n_rows, dataset) for n_rows, dataset in workloads],
        rounds=1,
        iterations=1,
    )
    record_rows("progressive", rows)
