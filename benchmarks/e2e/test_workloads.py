"""Checks on the benchmark's own generator and arithmetic.

Starts no server and generates no table; collected by the tier-1 command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import SeeDBConfig

import layers
import run
import workloads as wl
from spans import Span, self_times

NAMES = sorted(wl.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first, again, other = (
        wl.build_ops(name, 3), wl.build_ops(name, 3), wl.build_ops(name, 4)
    )
    assert first == again
    assert wl.ops_sha256(first) == wl.ops_sha256(again)
    assert wl.ops_sha256(first) != wl.ops_sha256(other)
    assert len(first) == len(other) == wl.WORKLOADS[name].n_ops


@pytest.mark.parametrize(
    "name", [name for name in NAMES if name != "hot_repeat"]
)
def test_no_two_requests_share_a_cache_key(name):
    config = SeeDBConfig(k=5)
    keys = {
        wl.decode_body(op.body).resolve(config).key_parts()
        for op in wl.build_ops(name, 5)
    }
    assert len(keys) == wl.WORKLOADS[name].n_ops


def test_priming_requests_are_in_no_timed_list():
    priming = {wl.encode_request(p, render=r)
               for p in wl.priming_predicates() for r in (False, True)}
    for name in NAMES:
        assert priming.isdisjoint(op.body for op in wl.build_ops(name, 6))


def test_hot_repeat_draws_only_primed_requests():
    hot = wl.hot_requests(7)
    assert len(set(hot)) == wl.N_HOT
    bodies = {op.body for op in wl.build_ops("hot_repeat", 7)}
    assert bodies <= set(hot)
    rendered = [b for b in hot if json.loads(b).get("options", {}).get("render")]
    assert len(rendered) == wl.N_HOT // 2


def test_warm_sqlite_sends_a_prefix_of_warm_memory():
    memory = [op.body for op in wl.build_ops("warm_memory", 8)]
    sqlite = [op.body for op in wl.build_ops("warm_sqlite", 8)]
    assert sqlite == memory[: len(sqlite)]


def test_cold_table_rotates_its_variants():
    variants = [op.variant for op in wl.build_ops("cold_table", 9)[:8]]
    assert variants == [0, 1, 2, 3, 0, 1, 2, 3]


@pytest.mark.parametrize(
    "n, expected", [(9, 75), (39, 75), (40, 75), (67, 85), (100, 90),
                    (200, 95), (1000, 99)],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    assert wl.tail_percentile(n) == expected


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_reports_its_documented_tail(name):
    spec = wl.WORKLOADS[name]
    assert spec.tail == wl.tail_percentile(spec.expected_ops)


def test_percentile_interpolates():
    assert wl.percentile([5, 1, 3, 2, 4], 50) == 3
    assert wl.percentile([1, 2, 3, 4], 75) == pytest.approx(3.25)
    assert wl.percentile([7.0], 95) == 7.0
    assert wl.median([4, 1]) == pytest.approx(2.5)


def test_self_time_is_span_minus_what_children_cover():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),      # overlaps a: union is 1..6
        Span(3, "c", 8.0, 9.0, 0, 0),
        Span(4, "a.inner", 1.5, 2.0, 1, 0),  # grandchild: not op's child
        Span(5, "other", 20.0, 21.0, None, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(1.0)


def test_benchmark_json_names_what_the_runner_prints():
    """BENCHMARK.json is the contract: it must list exactly the workloads
    and metrics ``run.py`` emits, with their units."""
    declared = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in declared["workloads"]] == [
        spec.name for spec in wl.WORKLOADS.values() if spec.gated
    ]
    for entry in declared["workloads"]:
        assert entry["why"] == wl.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        layers.PER_LAYER_UNITS
    )
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["run_seconds"] == run.DEFAULT_SECONDS


ORPHAN_SCRIPT = """
import os, harness
from multiprocessing import resource_tracker
harness.adopt_orphans()
resource_tracker.ensure_running()          # ends only once its pipe closes
if os.fork() == 0:                         # a worker ...
    if os.fork() == 0:                     # ... whose helper outlives it
        os.execvp("sleep", ["sleep", "0.3"])
    os._exit(0)
print(harness.reap_descendants())
try:
    os.waitpid(-1, 0)
except ChildProcessError:
    print("none left")
"""


def test_a_run_waits_for_every_process_it_started():
    """Own child, orphaned grandchild and the resource tracker are all
    reaped before ``reap_descendants`` returns (in a child interpreter:
    it closes the calling process's tracker)."""
    child = subprocess.run(
        [sys.executable, "-c", ORPHAN_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=30,
    )
    assert child.stdout.split("\n")[:2] == ["3", "none left"], child.stderr
