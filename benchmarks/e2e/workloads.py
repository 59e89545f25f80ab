"""Workload generator for the end-to-end benchmark.

Everything here is a pure function of ``--seed``: the table variants, the
request list of each workload (a fixed-length list of pre-encoded HTTP
bodies) and its sha256. The runner serves the prefix of a list that fits
in its timed window, so two commits measured at one seed are sent
byte-identical requests in the same order. Nothing in this module starts
a server, a thread or a process.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from repro.api import RecommendationRequest
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.expressions import col
from repro.db.query import RowSelectQuery

#: The shape every ROADMAP figure was taken on: 210 candidate views.
TABLE_CONFIG = SyntheticConfig(
    n_rows=20_000, n_dimensions=10, n_measures=10, cardinality=12
)
TABLE_NAME = "synthetic"
#: ``cold_table`` rotates this many seeded variants of the table.
N_VARIANTS = 4
#: ``hot_repeat`` draws from this many primed requests, Zipf-distributed.
N_HOT = 16
ZIPF_EXPONENT = 1.1

RECOMMEND = "/recommend"
STREAM = "/recommend/stream"


@dataclass(frozen=True)
class WorkloadSpec:
    """What one workload sends and how the runner treats its samples."""

    name: str
    why: str
    backend: str  # "memory" | "sqlite"
    path: str
    #: Length of the request list (fixed per workload, never per seed).
    n_ops: int
    #: Percentile reported as ``latency_tail_ms`` (see :func:`tail_percentile`).
    tail: int
    #: Ops the seed commit completes in a 12 s window (sizes ``tail``).
    expected_ops: int
    #: The oracle recomputes every ``oracle_stride``-th completed op.
    oracle_stride: int
    #: Ops replayed by the traced pass (at most).
    trace_ops: int
    #: Mixed into the seed that shuffles this workload's predicates;
    #: warm_memory and warm_sqlite share one so they send the same list.
    salt: int = 0
    connections: int = 1
    cluster_workers: int = 0
    rotates_tables: bool = False
    #: Every timed request was primed into the result cache during set-up.
    primed_hits: bool = False
    #: False keeps the workload out of BENCHMARK.json (run and reported,
    #: never gated): its run-to-run spread exceeds any allowed bound.
    gated: bool = True


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cold_table",
            why="register_table bumps data_version before every request: "
            "engine.metadata dominates; load+answer timed together so work "
            "moved into table load cannot hide",
            backend="memory", path=RECOMMEND, n_ops=400, tail=75,
            expected_ops=16, oracle_stride=1, trace_ops=10, salt=1,
            rotates_tables=True,
        ),
        WorkloadSpec(
            name="warm_memory",
            why="distinct predicates on a warm memory backend, no cache "
            "hit: engine.execute on db/ + optimizer/extract is ~93% of the "
            "work; where a faster shared scan must show",
            backend="memory", path=RECOMMEND, n_ops=1200, tail=85,
            expected_ops=76, oracle_stride=10, trace_ops=30,
        ),
        WorkloadSpec(
            name="warm_sqlite",
            why="same requests on SqliteBackend: backends/sqlite + sqlgen "
            "do the work, so an engine-side numpy gain predicts no change "
            "here and a SQL-generation change shows only here",
            backend="sqlite", path=RECOMMEND, n_ops=400, tail=75,
            expected_ops=31, oracle_stride=5, trace_ops=30,
        ),
        WorkloadSpec(
            name="hot_repeat",
            why="Zipf(1.1) over 16 primed requests on one keep-alive "
            "connection, all result-cache hits: frontend+api+service do "
            "everything, the engine nothing; bypass for engine changes",
            backend="memory", path=RECOMMEND, n_ops=20_000, tail=95,
            expected_ops=270, oracle_stride=10, trace_ops=30, salt=2,
            primed_hits=True,
        ),
        WorkloadSpec(
            name="stream_incremental",
            why="POST /recommend/stream with vega-lite rendering as "
            "/dashboard issues it: partition rounds plus a viz build per "
            "round; a batch-path gain that costs the phased path shows",
            backend="memory", path=STREAM, n_ops=200, tail=75,
            expected_ops=10, oracle_stride=3, trace_ops=10, salt=3,
            gated=False,
        ),
        WorkloadSpec(
            name="cluster_warm",
            why="warm_memory-kind requests over 2 keep-alive connections "
            "into ClusterService(workers=2): only workload where "
            "service.cluster dispatch + service.shm do measurable work",
            backend="memory", path=RECOMMEND, n_ops=2400, tail=90,
            expected_ops=120, oracle_stride=10, trace_ops=30, salt=4,
            connections=2, cluster_workers=2,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: an HTTP POST, optionally preceded by a
    table registration (``variant`` indexes :func:`table_variants`)."""

    path: str
    body: bytes
    variant: "int | None" = None


# -- tables -----------------------------------------------------------------


def table_variants(seed: int, n: int = N_VARIANTS) -> list:
    """``n`` seeded tables of the standard shape; variant 0 is the one
    every workload except ``cold_table`` serves."""
    return [
        generate_synthetic(
            TABLE_CONFIG, seed=seed * 1000 + index, table_name=TABLE_NAME
        ).table
        for index in range(n)
    ]


def _dimension_values() -> list[tuple[str, str]]:
    """Every ``(dimension, value)`` of the d0..d9 columns. The generator
    labels values from the config alone, so this needs no table."""
    width = len(str(TABLE_CONFIG.cardinality - 1))
    return [
        (f"d{d}", f"d{d}=v{code:0{width}d}")
        for d in range(TABLE_CONFIG.n_dimensions)
        for code in range(TABLE_CONFIG.cardinality)
    ]


# -- predicates -------------------------------------------------------------


def distinct_predicates(seed: int, n: int) -> list:
    """``n`` pairwise-distinct predicates in a seeded order.

    Three tiers, each shuffled by the seed: the 120 single equalities,
    then ORs of two values of one dimension, then ANDs across two
    dimensions. The first two tiers constrain one dimension each, so the
    view space (and with it the work per request) is the same for every
    request a 10 s window reaches today; the AND tier only comes into
    reach once the system is several times faster.
    """
    rng = random.Random(seed)
    atoms = _dimension_values()
    singles = [col(dim) == value for dim, value in atoms]
    rng.shuffle(singles)
    ors = [
        (col(dim_a) == a) | (col(dim_b) == b)
        for i, (dim_a, a) in enumerate(atoms)
        for dim_b, b in atoms[i + 1 :]
        if dim_a == dim_b
    ]
    rng.shuffle(ors)
    predicates = singles + ors
    if len(predicates) < n:
        ands = [
            (col(dim_a) == a) & (col(dim_b) == b)
            for i, (dim_a, a) in enumerate(atoms)
            for dim_b, b in atoms[i + 1 :]
            if dim_a != dim_b
        ]
        rng.shuffle(ands)
        predicates += ands
    if len(predicates) < n:
        raise ValueError(f"only {len(predicates)} distinct predicates, need {n}")
    return predicates[:n]


def priming_predicates() -> list:
    """Predicates no timed list contains (they all name ``segment``), for
    warming engine caches, pools and cluster workers during set-up."""
    values = [value for dim, value in _dimension_values() if dim == "d0"]
    return [col("segment") == "target", col("segment") == "rest"] + [
        (col("segment") == "target") | (col("d0") == value) for value in values
    ]


def encode_request(predicate, render: bool = False) -> bytes:
    """The wire body for one predicate (``k`` left to the server's config)."""
    options = {"render": {"format": "vega-lite"}} if render else {}
    request = RecommendationRequest(
        target=RowSelectQuery(TABLE_NAME, predicate), options=options
    )
    return json.dumps(request.to_dict(), sort_keys=True).encode("utf-8")


def decode_body(body: bytes) -> RecommendationRequest:
    return RecommendationRequest.from_dict(json.loads(body))


# -- request lists ----------------------------------------------------------


def build_ops(name: str, seed: int) -> list[Op]:
    """The fixed-length request list of workload ``name`` at ``seed``."""
    spec = WORKLOADS[name]
    if spec.primed_hits:
        hot = hot_requests(seed)
        rng = random.Random(seed + 1)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(N_HOT)]
        draws = rng.choices(range(N_HOT), weights=weights, k=spec.n_ops)
        return [Op(spec.path, hot[index]) for index in draws]
    predicates = distinct_predicates(seed * 31 + spec.salt, spec.n_ops)
    render = spec.path == STREAM
    return [
        Op(
            spec.path,
            encode_request(predicate, render=render),
            variant=index % N_VARIANTS if spec.rotates_tables else None,
        )
        for index, predicate in enumerate(predicates)
    ]


def hot_requests(seed: int) -> list[bytes]:
    """The 16 primed bodies of ``hot_repeat``: 8 plain, 8 rendered."""
    predicates = distinct_predicates(
        seed * 31 + WORKLOADS["hot_repeat"].salt, N_HOT
    )
    return [
        encode_request(predicate, render=rank >= N_HOT // 2)
        for rank, predicate in enumerate(predicates)
    ]


def ops_sha256(ops: list[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.path.encode("utf-8"))
        digest.update(b"\0" if op.variant is None else bytes([1 + op.variant]))
        digest.update(op.body)
        digest.update(b"\n")
    return digest.hexdigest()


# -- statistics -------------------------------------------------------------

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (75, 85, 90, 95, 99)
#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> int:
    """The highest ladder percentile with >= 10 of ``n_samples`` beyond it.

    Below 40 samples no rung qualifies and the lowest (p75) is returned;
    such a tail is reported but is not one the sample supports.
    """
    supported = [
        p for p in TAIL_LADDER if n_samples * (100 - p) >= MIN_BEYOND * 100
    ]
    return supported[-1] if supported else TAIL_LADDER[0]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``p`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 50)
