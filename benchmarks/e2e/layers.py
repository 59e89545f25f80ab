"""The traced pass: per-layer numbers for one workload.

The workload's list is served over HTTP (untraced), then a prefix of it
twice more in-process: through ``service.recommend`` untraced, and again
with a span around every public call into a layer. The
engine's phases are timed by driving them by hand, which is exactly what
``ExecutionEngine.run`` does. Nothing under ``src/`` is instrumented.

A metric a workload's path never touches (``cluster.*`` without a
cluster, ``engine.incremental_*`` on a blocking workload, ``engine.*``
on ``hot_repeat``) is reported as 0.
"""

from __future__ import annotations

import dataclasses
import json
import time

from repro.api.wire import result_to_json
from repro.core.topk import top_k_views
from repro.db.aggregates import Aggregate
from repro.db.groupby import aggregate_by_codes, factorize, factorize_multi
from repro.engine.incremental import IncrementalScorePhase, PhasedExecutePhase
from repro.engine.phases import (
    EnumeratePhase,
    MetadataPhase,
    PrunePhase,
    RenderPhase,
    SelectPhase,
    default_phases,
)
from repro.frontend.server import decode_request
from repro.metadata.collector import MetadataCollector
from repro.metadata.stats import cramers_v
from repro.service import decode_result, encode_result, single_backend_service
from repro.viz.render import build_visualizations

import harness
import workloads as wl
from spans import Tracer, self_times

VEGA = {"format": "vega-lite", "theme": "light", "max_charts": None}
#: Blocking phases in pipeline order (``sample`` is a no-op by default).
ENGINE_PHASES = (
    "metadata", "enumerate", "prune", "sample", "plan",
    "execute", "score", "select", "render", "to_result",
)
#: Span names of the phased executor's steps; together they are the
#: stream path's ``engine.execute``.
ROUND = "engine.incremental_round"
ROUND_FINISH = "engine.incremental_finish"
#: Leaf spans of a hand-driven engine run.
ENGINE_LEAVES = frozenset(
    {f"engine.{phase}" for phase in ENGINE_PHASES} | {ROUND, ROUND_FINISH}
)
HIT_REPEATS = 10

PER_LAYER_UNITS = {
    "latency_tail_ms": "ms",
    "first_round_p50_ms": "ms",
    "frontend.http_overhead_ms": "ms",
    "frontend.unattributed_ms": "ms",
    "api.decode_ms": "ms",
    "api.resolve_ms": "ms",
    "api.encode_ms": "ms",
    "api.response_bytes": "bytes",
    "service.recommend_ms": "ms",
    "service.hit_ms": "ms",
    "service.self_ms": "ms",
    "service.reconcile_ratio": "ratio",
    "service.executions": "count",
    "service.result_cache_hits": "count",
    "service.coalesced": "count",
    "service.failed": "count",
    "service.hit_ratio": "ratio",
    "cluster.dispatch_overhead_ms": "ms",
    "cluster.hit_ms": "ms",
    "cluster.start_s": "s",
    "shm.encode_ms": "ms",
    "shm.decode_ms": "ms",
    "shm.segment_bytes": "bytes",
    **{f"engine.{phase}_ms": "ms" for phase in ENGINE_PHASES},
    "engine.stopwatch_ratio": "ratio",
    "engine.incremental_round_ms": "ms",
    "engine.incremental_rounds": "count",
    "engine.incremental_post_ms": "ms",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "metadata.collect_ms": "ms",
    "metadata.cramers_v_ms": "ms",
    "db.factorize_ms": "ms",
    "db.group_aggregate_ms": "ms",
    "backends.queries": "count",
    "backends.statements": "count",
    "backends.metadata_queries": "count",
    "backends.execute_ms_per_statement": "ms",
    "backends.register_table_ms": "ms",
    "viz.build_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.unspanned_ms": "ms",
    "trace.ops": "count",
}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _median(values: list) -> float:
    """Median, or 0.0 for a layer this workload never reached."""
    return wl.median(values) if values else 0.0


def _median_ms(seconds: list[float]) -> float:
    return _ms(_median(seconds))


def _per_op_seconds(tracer: Tracer, names) -> dict[int, float]:
    """Per op id, the summed duration of the spans named in ``names``."""
    totals: dict[int, float] = {}
    for span in tracer.spans:
        if span.name in names:
            totals[span.op_id] = totals.get(span.op_id, 0.0) + span.duration
    return totals


def _per_op_ms(tracer: Tracer, *names: str) -> float:
    """Median over ops of the summed duration of the named spans."""
    return _median_ms(list(_per_op_seconds(tracer, names).values()))


# -- hand-driven engine -----------------------------------------------------


def _new_context(engine, resolved):
    engine.cache.sync()
    return engine.new_context(
        resolved.query, resolved.config, resolved.k,
        reference=resolved.reference,
        dimensions=resolved.dimensions, measures=resolved.measures,
    )


def drive_blocking(tracer: Tracer, engine, resolved):
    """``ExecutionEngine.run`` over the default phases, a span per phase."""
    phases = default_phases()
    if resolved.render.get("format", "none") != "none":
        phases.append(RenderPhase(resolved.render))
    ctx = _new_context(engine, resolved)
    for phase in phases:
        with tracer.span(f"engine.{phase.name}"):
            phase.run(ctx)
    with tracer.span("engine.to_result"):
        return ctx.to_result()


def drive_stream(tracer: Tracer, engine, resolved):
    """The incremental pipeline as ``iter_resolved`` steps it: one span per
    partition round, a ``viz.build`` per round, then the post phases."""
    ctx = _new_context(engine, resolved)
    for phase in (MetadataPhase(), EnumeratePhase(), PrunePhase()):
        with tracer.span(f"engine.{phase.name}"):
            phase.run(ctx)
    rounds = PhasedExecutePhase(**resolved.incremental).rounds(ctx)
    while True:
        with tracer.span(ROUND) as span:
            state = next(rounds, None)
        if state is None:
            # The exhausting step only finalizes ctx.raw_views.
            span.name = ROUND_FINISH
            break
        top = top_k_views(state.scored.values(), resolved.k)
        with tracer.span("viz.build"):
            build_visualizations(top, ctx.schema, resolved.render)
    with tracer.span("engine.incremental_post"):
        for phase in (
            IncrementalScorePhase(), SelectPhase(), RenderPhase(resolved.render)
        ):
            with tracer.span(f"engine.{phase.name}"):
                phase.run(ctx)
    with tracer.span("engine.to_result"):
        return ctx.to_result()


# -- the three passes -------------------------------------------------------


def _in_process_pass(service, requests, path, before_op, ops) -> list[float]:
    """Untraced ``service.recommend`` (or a drained stream) per op."""
    latencies = []
    for op, request in zip(ops, requests):
        start = time.perf_counter()
        if before_op is not None:
            before_op(op)
        if path == wl.STREAM:
            for _partial in service.recommend_stream(request):
                pass
        else:
            service.recommend(request)
        latencies.append(time.perf_counter() - start)
    return latencies


def _traced_pass(tracer, stack, ops) -> dict:
    """Serve each op in-process under spans; returns per-op side numbers.

    Each op is executed twice — through the service, and by driving the
    engine by hand — in alternating order, so that neither always runs
    second on caches the other just warmed.
    """
    spec, service, backend = stack.spec, stack.service, stack.backend
    engine = service.engine()
    before_op = stack.before_op()
    stream = spec.path == wl.STREAM
    drive_engine = not spec.primed_hits  # all hits: the engine never runs
    schema = engine.cache.schema(wl.TABLE_NAME)
    side = {"response_bytes": [], "segment_bytes": [], "self": [],
            "stopwatch": [], "queries": [], "statements": [],
            "metadata_queries": [], "mismatches": 0}

    def serve(op, request):
        if before_op is not None:
            with tracer.span("backends.register_table"):
                before_op(op)
        hits_before = service.stats.result_cache_hits
        with tracer.span("service.recommend") as served:
            if stream:
                for last in service.recommend_stream(request):
                    pass
                result = last.result
            else:
                result = service.recommend(request)
        with tracer.span("api.encode"):
            payload = last.to_dict() if stream else result_to_json(result)
            body = json.dumps(payload).encode("utf-8")
        side["response_bytes"].append(len(body))
        hit = service.stats.result_cache_hits > hits_before
        # Self time of the service on this op: its span minus the engine
        # phases the result's own public stopwatch reports.
        engine_seconds = 0.0 if hit else sum(result.stopwatch.phases.values())
        side["self"].append(served.duration - engine_seconds)
        side["stopwatch"].append(engine_seconds)
        return result

    def drive(op, resolved):
        if before_op is not None:
            before_op(op)  # the hand-driven run must start cold too
        counters = (backend.queries_executed, backend.statements_executed,
                    backend.metadata_queries_executed)
        with tracer.span("engine.run"):
            driven = (drive_stream if stream else drive_blocking)(
                tracer, engine, resolved
            )
        side["queries"].append(backend.queries_executed - counters[0])
        side["statements"].append(backend.statements_executed - counters[1])
        side["metadata_queries"].append(
            backend.metadata_queries_executed - counters[2]
        )
        return driven

    for op_id, op in enumerate(ops):
        with tracer.span("op", op_id=op_id):
            with tracer.span("api.decode"):
                request, _ = decode_request(json.loads(op.body))
            if stream:
                # The service pins a stream's strategy before resolving.
                request = dataclasses.replace(request, strategy="incremental")
            with tracer.span("api.resolve"):
                resolved = request.resolve(harness.CONFIG)
                resolved.key_parts()
            if not drive_engine:
                result = serve(op, request)
            elif op_id % 2:
                driven = drive(op, resolved)
                result = serve(op, request)
            else:
                result = serve(op, request)
                driven = drive(op, resolved)
            if drive_engine:
                side["mismatches"] += not harness.same_views(
                    harness.result_views(driven), harness.result_views(result)
                )
            if not stream:
                with tracer.span("viz.build"):
                    build_visualizations(result.recommendations, schema, VEGA)
            with tracer.span("shm.encode"):
                blob = encode_result(result)
            with tracer.span("shm.decode"):
                decode_result(blob)
            side["segment_bytes"].append(len(blob))
    return side


def _hit_latencies(service, request) -> list[float]:
    """``service.recommend`` on a request whose result is cached."""
    service.recommend(request)
    latencies = []
    for _ in range(HIT_REPEATS):
        before = service.stats.result_cache_hits
        start = time.perf_counter()
        service.recommend(request)
        elapsed = time.perf_counter() - start
        if service.stats.result_cache_hits > before:
            latencies.append(elapsed)
    return latencies


def _microbenchmarks(table, backend_kind) -> dict[str, float]:
    """Single-layer costs on the workload's own table, timed once."""
    metrics = {}
    start = time.perf_counter()
    MetadataCollector().collect(table)
    metrics["metadata.collect_ms"] = _ms(time.perf_counter() - start)

    dimensions = [spec.name for spec in table.schema.dimensions]
    measures = [spec.name for spec in table.schema.measures]
    start = time.perf_counter()
    for i, a in enumerate(dimensions):
        for b in dimensions[i + 1 :]:
            cramers_v(table.column(a), table.column(b))
    metrics["metadata.cramers_v_ms"] = _ms(time.perf_counter() - start)

    start = time.perf_counter()
    for name in dimensions:
        factorize(table.column(name))
    metrics["db.factorize_ms"] = _ms(time.perf_counter() - start)

    aggregates = tuple(Aggregate("sum", m) for m in measures) + tuple(
        Aggregate("avg", m) for m in measures
    )
    start = time.perf_counter()
    factorization = factorize_multi(
        {dimensions[1]: table.column(dimensions[1])}, table.num_rows
    )
    aggregate_by_codes(
        factorization, {m: table.column(m) for m in measures}, aggregates
    )
    metrics["db.group_aggregate_ms"] = _ms(time.perf_counter() - start)

    scratch = harness.BACKENDS[backend_kind]()
    try:
        start = time.perf_counter()
        scratch.register_table(table)
        metrics["backends.register_table_ms"] = _ms(time.perf_counter() - start)
    finally:
        scratch.close()
    return metrics


def traced_run(stack, ops, seconds: float, tracer: Tracer) -> tuple[dict, list[str]]:
    """All per-layer metrics of one workload; also returns problems found
    (a hand-driven answer that differs from the service's is one)."""
    spec, service = stack.spec, stack.service
    before_op = stack.before_op()
    hot = spec.primed_hits
    stream = spec.path == wl.STREAM
    cache_stats = service.engine().cache.stats

    # Pass 1: HTTP, untraced, 40% of the budget.
    snap_before = service.snapshot()
    samples, _ = harness.run_closed_loops(
        stack.address, ops, spec, seconds * 0.4, before_op=before_op,
        keep_every=len(ops) + 1,
    )
    snap_after = service.snapshot()
    problems = [f"traced HTTP op {s.index}: {s.error}" for s in samples if not s.ok]
    http_all = [s.latency for s in samples if s.ok]
    if not http_all:
        raise RuntimeError(f"traced HTTP pass served no op: {problems}")
    # The in-process passes replay a prefix of what HTTP served: an op
    # costs about three HTTP ops there (once untraced, then traced through
    # the service and again by hand), and 60% of the budget is left.
    affordable = int(seconds * 0.6 / (3 * wl.median(http_all)))
    ops = ops[: max(3, min(len(samples), spec.trace_ops, affordable))]
    # Differences against HTTP are taken over the same ops.
    http = [s.latency for s in samples[: len(ops)] if s.ok] or http_all
    requests = [wl.decode_body(op.body) for op in ops]
    if stream:
        requests = [dataclasses.replace(r, strategy="incremental") for r in requests]

    # Pass 2: in-process, untraced, same ops.
    if not hot:
        service.clear_result_cache()
    untraced = _in_process_pass(service, requests, spec.path, before_op, ops)

    # Pass 3: in-process, traced, same ops.
    if not hot:
        service.clear_result_cache()
    cache_before = (cache_stats.hits, cache_stats.misses)
    side = _traced_pass(tracer, stack, ops)
    cache_hits = cache_stats.hits - cache_before[0]
    cache_misses = cache_stats.misses - cache_before[1]
    if side["mismatches"]:
        problems.append(
            f"{side['mismatches']} hand-driven engine answers differ from the service's"
        )

    n = len(ops)
    http_ms, untraced_ms = _median_ms(http), _median_ms(untraced)
    recommend_ms = _per_op_ms(tracer, "service.recommend")
    register_ms = _per_op_ms(tracer, "backends.register_table")
    decode_ms = _per_op_ms(tracer, "api.decode")
    encode_ms = _per_op_ms(tracer, "api.encode")
    self_ms = _median_ms(side["self"])
    engine_ms = {
        phase: _per_op_ms(tracer, f"engine.{phase}") for phase in ENGINE_PHASES
    }
    if stream:
        engine_ms["execute"] = _per_op_ms(tracer, ROUND, ROUND_FINISH)
    engine_sum = sum(engine_ms.values())
    # Hand-driven engine seconds over the service result's own stopwatch,
    # op by op: the cross-check that driving by hand measures the same run.
    driven = _per_op_seconds(tracer, ENGINE_LEAVES - {"engine.to_result"})
    stopwatch_ratios = [
        driven[op_id] / seconds
        for op_id, seconds in enumerate(side["stopwatch"])
        if seconds and op_id in driven
    ]
    rounds = tracer.durations(ROUND)
    statements = _median(side["statements"])
    served = snap_after["requests"] - snap_before["requests"]
    result_hits = snap_after["result_cache_hits"] - snap_before["result_cache_hits"]
    own = self_times(tracer.spans)

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(_microbenchmarks(stack.tables[0], spec.backend))
    if register_ms:
        metrics["backends.register_table_ms"] = register_ms
    metrics.update({f"engine.{phase}_ms": ms for phase, ms in engine_ms.items()})
    metrics.update({
        "latency_tail_ms": _ms(wl.percentile(http_all, spec.tail)),
        "first_round_p50_ms": _median_ms([s.first for s in samples if s.ok]),
        "frontend.http_overhead_ms": http_ms - untraced_ms,
        "frontend.unattributed_ms":
            http_ms - (register_ms + decode_ms + recommend_ms + encode_ms),
        "api.decode_ms": decode_ms,
        "api.resolve_ms": _per_op_ms(tracer, "api.resolve"),
        "api.encode_ms": encode_ms,
        "api.response_bytes": _median(side["response_bytes"]),
        "service.recommend_ms": recommend_ms,
        "service.hit_ms": _median_ms(
            _hit_latencies(service, wl.decode_body(ops[-1].body))
        ),
        "service.self_ms": self_ms,
        "service.reconcile_ratio":
            (self_ms + engine_sum) / recommend_ms if engine_sum else 0.0,
        "service.executions": snap_after["executions"] - snap_before["executions"],
        "service.result_cache_hits": result_hits,
        "service.coalesced": snap_after["coalesced"] - snap_before["coalesced"],
        "service.failed": snap_after["failed"] - snap_before["failed"],
        "service.hit_ratio": result_hits / served if served else 0.0,
        "shm.encode_ms": _per_op_ms(tracer, "shm.encode"),
        "shm.decode_ms": _per_op_ms(tracer, "shm.decode"),
        "shm.segment_bytes": _median(side["segment_bytes"]),
        "engine.stopwatch_ratio": _median(stopwatch_ratios),
        "engine.incremental_round_ms": _median_ms(rounds),
        "engine.incremental_rounds": len(rounds) / n,
        "engine.incremental_post_ms": _per_op_ms(tracer, "engine.incremental_post"),
        "engine.cache_hits": cache_hits / n,
        "engine.cache_misses": cache_misses / n,
        "backends.queries": _median(side["queries"]),
        "backends.statements": statements,
        "backends.metadata_queries": _median(side["metadata_queries"]),
        "backends.execute_ms_per_statement":
            engine_ms["execute"] / statements if statements else 0.0,
        "viz.build_ms": _median_ms(tracer.durations("viz.build")),
        "trace.overhead_ms": recommend_ms + register_ms - untraced_ms,
        # Time inside an op that no layer span covers: the harness itself.
        "trace.unspanned_ms": _median_ms(
            [own[span.id] for span in tracer.spans if span.name == "op"]
        ),
        "trace.ops": n,
    })
    if spec.cluster_workers:
        # The same ops as misses on a plain in-process service over the
        # same backend object: the difference is dispatch + shm.
        plain = single_backend_service(stack.backend, harness.CONFIG)
        try:
            plain.recommend(
                wl.decode_body(wl.encode_request(wl.priming_predicates()[0]))
            )
            in_process = _in_process_pass(plain, requests, spec.path, None, ops)
        finally:
            plain.close()
        metrics.update({
            "cluster.start_s": stack.cluster_start_s,
            "cluster.hit_ms": metrics["service.hit_ms"],
            "cluster.dispatch_overhead_ms": untraced_ms - _median_ms(in_process),
        })
    return metrics, problems
