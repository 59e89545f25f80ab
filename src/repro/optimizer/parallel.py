"""Parallel plan execution (§3.3 "Parallel Query Execution").

"We observe that as the number of queries executed in parallel increases,
the total latency decreases at the cost of increased per query execution
time." Plan steps are independent by construction, so :func:`run_steps`
runs them on the calling thread plus threads of one process-wide bounded
pool. Every plan in the process borrows from that pool: a run of
``n_workers`` claimers takes ``n_workers - 1`` of its threads, and the
claimers pull steps through a work queue, so pool concurrency stays
bounded at :data:`MAX_TOTAL_WORKERS` however many sessions run at once.
How many claimers a plan asks for is the engine's decision
(:func:`~repro.optimizer.cost.choose_parallelism`); how many it gets is
:func:`claim_cores`'s, which starts a helper only on a core no other
plan's claimer holds.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.util.deadline import cancel_scope, check_current, current_token

if TYPE_CHECKING:
    from repro.backends.base import Backend
    from repro.engine.cache import SessionCache
    from repro.model.view import ViewBlock
    from repro.optimizer.plan import ExecutionStep


def usable_cores() -> int:
    """Cores this process may run on.

    ``os.cpu_count()`` counts the machine's cores; a process limited by an
    affinity mask (``taskset``, a container's cpuset) can use fewer, and
    a worker per counted core would only contend for them.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


#: Process-wide concurrency bound: enough threads to overlap I/O and
#: GIL-releasing C work on every core, small enough not to thrash.
MAX_TOTAL_WORKERS = max(4, min(32, usable_cores() * 2))

_pool_lock = threading.Lock()
_pool: "ThreadPoolExecutor | None" = None  # guarded-by: _pool_lock

_claims_lock = threading.Lock()
#: Claimers the plans running under :func:`claim_cores` hold right now.
_claimers_held = 0  # guarded-by: _claims_lock


@contextmanager
def claim_cores(wanted: int) -> "Iterator[int]":
    """Claimers a plan may run on now, held until the block exits.

    The calling thread is always one claimer, so a plan never waits;
    each further claimer (a pool helper) needs a usable core no claimer
    of another plan in this process holds. Alone a plan gets
    ``min(wanted, usable_cores())``; under concurrent requests that
    already fill the cores it gets 1 and runs sequentially, so the
    statements in flight stay near one per request as they would be
    without the pool.
    """
    global _claimers_held
    with _claims_lock:
        idle = usable_cores() - _claimers_held - 1
        granted = 1 + max(0, min(wanted - 1, idle))
        _claimers_held += granted
    try:
        yield granted
    finally:
        with _claims_lock:
            _claimers_held -= granted


def _shared_pool() -> ThreadPoolExecutor:
    """The process-wide pool, built on first parallel run."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                MAX_TOTAL_WORKERS, thread_name_prefix="seedb-worker"
            )
        return _pool


def run_steps(
    steps: "Sequence[ExecutionStep]",
    backend: "Backend",
    n_workers: int = 1,
    cache: "SessionCache | None" = None,
) -> "list[ViewBlock]":
    """Execute ``steps`` against ``backend``, cached comparison sides from
    ``cache``; their view blocks in step order.

    ``n_workers=1`` (or a single step) runs sequentially on the calling
    thread, checking the cancel scope between steps. Otherwise
    ``min(n_workers, len(steps))`` claimers — the calling thread and the
    rest as tasks on the shared pool — pull step indices from a counter,
    each under the caller's cancel token. A failure or a cancel stops
    further claims; every claimed step finishes before the first
    exception propagates, so no step is still touching the backend when
    the caller regains control.
    """
    if n_workers <= 1 or len(steps) <= 1:
        blocks: "list[ViewBlock]" = []
        for step in steps:
            # Per-step checkpoint: abort a cancelled multi-step plan at a
            # step boundary even when the backend has no finer-grained one.
            check_current()
            blocks.extend(step.run(backend, cache))
        return blocks

    token = current_token()
    next_index = 0
    index_lock = threading.Lock()
    results: "list[list[ViewBlock] | None]" = [None] * len(steps)
    failures: list[BaseException] = []

    def claim() -> None:
        nonlocal next_index
        # Thread-local cancel scopes do not cross threads on their own;
        # without this the backend's per-statement checkpoints would never
        # see a cancelled request from a parallel plan.
        with cancel_scope(token):
            while token is None or not token.should_stop():
                with index_lock:
                    if failures or next_index >= len(steps):
                        return
                    index = next_index
                    next_index += 1
                try:
                    results[index] = steps[index].run(backend, cache)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with index_lock:
                        failures.append(exc)
                    return

    pool = _shared_pool()
    helpers = [pool.submit(claim) for _ in range(min(n_workers, len(steps)) - 1)]
    # The caller claims too, so n claimers cost n - 1 pool threads. A
    # helper still queued behind a saturated pool when the caller runs
    # out of steps is cancelled, not waited for.
    claim()
    # Join-before-raise: every started claimer must finish before a
    # failure (or cancellation, which claim() observes per step)
    # propagates — so this drain stays unconditional, not checkpointed.
    # seedb-lint: disable=cancellation -- claim() checks the token per step; this join is bounded by it
    for future in helpers:
        if not future.cancel():
            future.result()
    # A cancel observed by claim() *between* steps leaves no failure
    # behind; re-raise it here rather than returning partial results.
    check_current()
    if failures:
        raise failures[0]
    return [block for result in results for block in result]
