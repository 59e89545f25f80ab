"""End-to-end benchmark: ``POST /recommend`` at the request boundary.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload warm_memory --seed 1 \\
        --seconds 10 --trace 0

Every workload, end-to-end pass then traced pass, each in its own
process::

    python3 benchmarks/e2e/run.py --seed 1

See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no src/repro under {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from repro.service import DEFAULT_BACKEND  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

DEFAULT_SECONDS = 12
#: Set-up is repeated and its median reported, so one slow fork or page
#: fault does not decide ``setup_s``.
SETUP_REPEATS = 3

#: The gated metrics, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


# -- environment ------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout has none, and nothing outside the checkout may be read)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def warn_if_loaded() -> None:
    load, cores = os.getloadavg()[0], len(os.sched_getaffinity(0))
    if load > cores / 2:
        print(
            f"warning: 1-minute load average {load:.2f} exceeds half of "
            f"{cores} usable cores; this run will not meet the benchmark's bounds",
            file=sys.stderr,
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the cluster's workers), in MB. Linux reports ``ru_maxrss`` in KiB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# -- what each workload claims ----------------------------------------------


def check_claims(spec, before: dict, after: dict, samples) -> list[str]:
    """Violations of what the workload says it exercises, from the deltas
    of ``service.snapshot()`` across the timed window."""
    requests = after["requests"] - before["requests"]
    hits = after["result_cache_hits"] - before["result_cache_hits"]
    coalesced = after["coalesced"] - before["coalesced"]
    violations = []
    if after["failed"] != before["failed"]:
        violations.append(f"service.failed rose by {after['failed'] - before['failed']}")
    if spec.primed_hits:
        if requests and hits / requests < 0.97:
            violations.append(f"hit ratio {hits}/{requests} is below 0.97")
    elif hits or coalesced:
        violations.append(f"{hits} result-cache hits and {coalesced} coalesced, want 0")
    if spec.rotates_tables:
        advanced = (
            after["backends"][DEFAULT_BACKEND]["data_version"]
            - before["backends"][DEFAULT_BACKEND]["data_version"]
        )
        if advanced != len(samples):
            violations.append(
                f"data_version advanced by {advanced} over {len(samples)} ops"
            )
    return violations


# -- one run ----------------------------------------------------------------


def end_to_end_run(spec, seed: int, seconds: float) -> dict:
    """Tracing off. The system is set up ``SETUP_REPEATS`` times and each
    stack serves an equal slice of the timed window, continuing the op
    list where the last one stopped: ``setup_s`` is a median of several
    set-ups, and the latency samples are spread over more wall time than
    one contiguous window, which this box's slow speed drift rewards.
    The oracle runs after the last slice."""
    ops = wl.build_ops(spec.name, seed)
    setups, samples, violations, wall = [], [], [], 0.0
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        stack = harness.build_stack(spec, seed)
        setups.append(time.perf_counter() - started)
        try:
            before = stack.service.snapshot()
            served, elapsed = harness.run_closed_loops(
                stack.address, ops, spec, seconds / SETUP_REPEATS,
                before_op=stack.before_op(), keep_every=spec.oracle_stride,
                first=samples[-1].index + 1 if samples else 0,
            )
            after = stack.service.snapshot()
        finally:
            stack.close()
        violations += check_claims(spec, before, after, served)
        samples += served
        wall += elapsed
    mismatches = harness.check_answers(spec, stack.tables, ops, samples)
    good = [s for s in samples if s.ok]
    problems = [f"op {s.index}: {s.error}" for s in samples if not s.ok] + mismatches
    if not good:
        raise RuntimeError(f"no op succeeded: {problems[:3]}")
    latencies = [s.latency for s in good]
    return {
        "attempted": len(samples),
        "failed": len(problems),
        "problems": problems,
        "violations": violations,
        "sha256": wl.ops_sha256(ops),
        "samples": len(good),
        # Too unsteady on this box to carry a bound (see README).
        "informational": {
            f"latency_tail_ms(p{spec.tail})":
                wl.percentile(latencies, spec.tail) * 1000.0,
            "first_round_p50_ms": wl.median([s.first for s in good]) * 1000.0,
            "failed_share": len(problems) / len(samples),
        },
        "setup_samples_s": setups,
        "latencies_ms": [s.latency * 1000.0 for s in good],
        "metrics": {
            "setup_s": wl.median(setups),
            "latency_p50_ms": wl.median(latencies) * 1000.0,
            "throughput_rps": len(good) / wall,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def traced_run(spec, seed: int, seconds: float) -> dict:
    """The per-layer pass; spans go to ``results/`` when it ends."""
    tracer = Tracer()
    stack = harness.build_stack(spec, seed)
    try:
        ops = wl.build_ops(spec.name, seed)
        metrics, problems = layers.traced_run(stack, ops, seconds, tracer)
    finally:
        stack.close()
    (RESULTS / f"spans-{spec.name}-seed{seed}.json").write_text(
        json.dumps(tracer.to_json())
    )
    n = int(metrics["trace.ops"])
    return {
        "attempted": n,
        "failed": len(problems),
        "problems": problems,
        "violations": [],
        "sha256": wl.ops_sha256(ops),
        "samples": n,
        "metrics": metrics,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = wl.WORKLOADS[name]
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    # SqliteBackend() and friends create temp files: keep them in-checkout.
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    tempfile.tempdir = scratch
    harness.adopt_orphans()
    try:
        outcome = (traced_run if trace else end_to_end_run)(spec, seed, seconds)
    finally:
        # No process this run started — cluster workers, their resource
        # trackers, this process's own — may outlive it.
        harness.reap_descendants()
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    units = layers.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {
        metric: {"value": float(outcome["metrics"][metric]), "unit": unit}
        for metric, unit in units.items()
    }
    correct = outcome["failed"] == 0 and not outcome["violations"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "correct": correct, **outcome, "metrics": metrics,
    }
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    for problem in outcome["problems"] + outcome["violations"]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(f"# {name} seed={seed} trace={int(trace)} n={outcome['samples']} "
          f"sha256={outcome['sha256'][:16]}")
    for metric, entry in metrics.items():
        print(f"{name:<20}{metric:<36}{entry['value']:>14.4f} {entry['unit']}")
    for metric, value in outcome.get("informational", {}).items():
        print(f"{name:<20}{metric:<36}{value:>14.4f} (informational)")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, both passes, one child process per run so no run
    inherits another's heap, caches or peak RSS."""
    status = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--no-load-warning"],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = child.stdout.splitlines()
            # The child's last line is the driver's JSON; the rest is the
            # by-name listing.
            print("\n".join(lines[:-1] if child.returncode in (0, 1) else lines))
            sys.stdout.flush()
            if child.returncode != 0:
                print(f"FAILED {name} trace={trace}: exit {child.returncode}",
                      file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # run_all's children: their own predecessors are the load they would see.
    parser.add_argument("--no-load-warning", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.no_load_warning:
        warn_if_loaded()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
