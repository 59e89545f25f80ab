"""Parallel plan execution (§3.3 "Parallel Query Execution").

"We observe that as the number of queries executed in parallel increases,
the total latency decreases at the cost of increased per query execution
time." Plan steps are independent by construction, so :func:`run_steps`
runs them on one process-wide bounded thread pool. Every plan in the
process borrows from that pool: a run claims at most ``n_workers`` of its
threads through a work queue, so total DBMS concurrency stays bounded at
:data:`MAX_TOTAL_WORKERS` however many sessions run at once.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.util.deadline import cancel_scope, check_current, current_token

if TYPE_CHECKING:
    from repro.backends.base import Backend
    from repro.model.view import ViewBlock
    from repro.optimizer.plan import ExecutionStep

#: Process-wide concurrency bound: enough threads to overlap I/O and
#: GIL-releasing C work on every core, small enough not to thrash.
MAX_TOTAL_WORKERS = max(4, min(32, (os.cpu_count() or 4) * 2))

_pool_lock = threading.Lock()
_pool: "ThreadPoolExecutor | None" = None  # guarded-by: _pool_lock


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
    steps: "Sequence[ExecutionStep]", backend: "Backend", n_workers: int = 1
) -> "list[ViewBlock]":
    """Execute ``steps`` against ``backend``; their view blocks in step order.

    ``n_workers=1`` (or a single step) runs sequentially on the calling
    thread, checking the cancel scope between steps. Otherwise
    ``min(n_workers, len(steps))`` claimer tasks on the shared pool pull
    step indices from a counter, each under the submitter's cancel token.
    A failure or a cancel stops further claims; every claimed step
    finishes before the first exception propagates, so no step is still
    touching the backend when the caller regains control.
    """
    if n_workers <= 1 or len(steps) <= 1:
        blocks: "list[ViewBlock]" = []
        for step in steps:
            # Per-step checkpoint: abort a cancelled multi-step plan at a
            # step boundary even when the backend has no finer-grained one.
            check_current()
            blocks.extend(step.run(backend))
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
                    results[index] = steps[index].run(backend)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with index_lock:
                        failures.append(exc)
                    return

    pool = _shared_pool()
    claimers = [pool.submit(claim) for _ in range(min(n_workers, len(steps)))]
    # Join-before-raise: every claimer must finish before a failure (or
    # cancellation, which claim() observes per step) propagates — so this
    # drain stays unconditional rather than checkpointed.
    # seedb-lint: disable=cancellation -- claim() checks the token per step; this join is bounded by it
    for future in claimers:
        future.result()
    # A cancel observed by claim() *between* steps leaves no failure
    # behind; re-raise it here rather than returning partial results.
    check_current()
    if failures:
        raise failures[0]
    return [block for result in results for block in result]
