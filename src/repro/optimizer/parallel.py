"""Parallel plan execution (§3.3 "Parallel Query Execution").

"We observe that as the number of queries executed in parallel increases,
the total latency decreases at the cost of increased per query execution
time." Plan steps are independent by construction, so they map naturally
onto a thread pool. Per-step wall-clock latencies are recorded so
benchmark E11 can report exactly that total-vs-per-query trade-off.

Two pooling modes exist:

* an executor-owned pool (``persistent=True`` or per-run) — the original
  single-session mode, still used by benchmarks that sweep pool sizes;
* the process-wide :class:`WorkerPool` (``pool=get_shared_pool()``) — one
  bounded thread pool shared by *every* engine in the process. Each run
  claims at most ``n_workers`` of its threads via a work-queue, so total
  DBMS concurrency stays bounded no matter how many sessions the service
  layer schedules at once.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.backends.base import Backend
from repro.model.view import ViewBlock
from repro.optimizer.plan import ExecutionPlan, ExecutionStep
from repro.util.deadline import cancel_scope, check_current, current_token
from repro.util.errors import ConfigError


@dataclass
class ParallelRunReport:
    """Timing evidence from one parallel plan run."""

    n_workers: int
    total_seconds: float
    step_seconds: list[float] = field(default_factory=list)

    @property
    def mean_step_seconds(self) -> float:
        if not self.step_seconds:
            return 0.0
        return sum(self.step_seconds) / len(self.step_seconds)

    @property
    def max_step_seconds(self) -> float:
        return max(self.step_seconds, default=0.0)


class WorkerPool:
    """A process-wide bounded thread pool shared by every engine.

    Engines do not own threads anymore — they borrow capacity from this
    pool, so total in-flight DBMS work is bounded by ``max_workers``
    regardless of how many sessions run concurrently. The underlying
    :class:`ThreadPoolExecutor` is created lazily and rebuilt transparently
    after :meth:`close` (a closed *shared* pool would otherwise poison
    every engine in the process).
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._pool: "ThreadPoolExecutor | None" = None  # guarded-by: _lock
        #: Tasks ever submitted (observability; exact under the lock).
        self.tasks_submitted = 0  # guarded-by: _lock

    @property
    def warm(self) -> bool:
        """Whether worker threads already exist."""
        with self._lock:
            return self._pool is not None

    def submit(self, fn, /, *args, **kwargs):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="seedb-worker",
                )
            self.tasks_submitted += 1
            return self._pool.submit(fn, *args, **kwargs)

    def close(self) -> None:
        """Join and release all worker threads (pool revives on next use)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def resize(self, max_workers: int) -> None:
        """Change the bound *in place*: drain current threads, adopt the
        new cap on next submit. In-place matters — every executor holds a
        reference to this pool, so replacing the object would leave them
        on the old bound."""
        if max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        with self._lock:
            pool, self._pool = self._pool, None
            self.max_workers = max_workers
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Default process-wide concurrency bound: enough threads to overlap I/O
#: and GIL-releasing C work on every core, small enough not to thrash.
DEFAULT_MAX_TOTAL_WORKERS = max(4, min(32, (os.cpu_count() or 4) * 2))

_shared_pool: "WorkerPool | None" = None
_shared_pool_lock = threading.Lock()


def get_shared_pool() -> WorkerPool:
    """The process-wide :class:`WorkerPool`, created on first use."""
    global _shared_pool
    with _shared_pool_lock:
        if _shared_pool is None:
            _shared_pool = WorkerPool(DEFAULT_MAX_TOTAL_WORKERS)
        return _shared_pool


def configure_shared_pool(max_workers: int) -> WorkerPool:
    """Rebound the shared pool at ``max_workers``.

    Resizes the existing singleton in place (draining current threads
    first), so every engine and executor already holding it sees the new
    bound — nothing keeps running on a retired pool.
    """
    pool = get_shared_pool()
    pool.resize(max_workers)
    return pool


class ParallelExecutor:
    """Runs plan steps concurrently on a thread pool.

    ``n_workers=1`` degenerates to sequential execution (the baseline the
    parallelism benchmark compares against).

    ``persistent=True`` keeps one executor-owned thread pool alive across
    :meth:`run` calls instead of constructing and tearing one down per
    plan. Call :meth:`close` (or use the executor as a context manager) to
    release the workers.

    ``pool=`` borrows threads from a shared :class:`WorkerPool` instead of
    owning any: each run feeds its steps through a work-queue claiming at
    most ``n_workers`` pool threads, which is what lets one bounded pool
    serve many concurrent engines. Pool-backed executors are reentrant —
    concurrent :meth:`run` calls are safe — and ``close`` never touches
    the shared threads.
    """

    def __init__(
        self,
        n_workers: int = 4,
        persistent: bool = False,
        pool: "WorkerPool | None" = None,
    ):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.persistent = persistent
        self.shared_pool = pool
        self._pool: "ThreadPoolExecutor | None" = None
        self._pool_lock = threading.Lock()
        #: run() invocations served by an already-warm pool (own or shared).
        self.pool_reuses = 0

    def run(
        self, plan: ExecutionPlan, backend: Backend
    ) -> tuple[list[ViewBlock], ParallelRunReport]:
        """Execute ``plan``; returns its view blocks and a timing report."""
        start = time.perf_counter()
        blocks: list[ViewBlock] = []
        step_seconds: list[float] = []
        token = current_token()

        if self.n_workers == 1 or len(plan.steps) <= 1:
            for step in plan.steps:
                result, elapsed = _timed_run(step, backend)
                blocks.extend(result)
                step_seconds.append(elapsed)
        elif self.shared_pool is not None:
            blocks, step_seconds = self._run_on_shared(plan, backend)
        elif self.persistent:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_scoped_run, token, step, backend)
                for step in plan.steps
            ]
            try:
                for future in futures:
                    check_current()
                    result, elapsed = future.result()
                    blocks.extend(result)
                    step_seconds.append(elapsed)
            except BaseException:
                # Match the per-run pool's guarantee (its `with` block joins
                # every worker before the exception escapes): no step may
                # still be touching the backend when the caller regains
                # control and possibly mutates tables.
                _drain(futures)
                raise
        else:
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                futures = [
                    pool.submit(_scoped_run, token, step, backend)
                    for step in plan.steps
                ]
                # On cancellation the with-block still joins every worker;
                # each aborts at its next backend checkpoint (same token).
                for future in futures:
                    check_current()
                    result, elapsed = future.result()
                    blocks.extend(result)
                    step_seconds.append(elapsed)

        report = ParallelRunReport(
            n_workers=self.n_workers,
            total_seconds=time.perf_counter() - start,
            step_seconds=step_seconds,
        )
        return blocks, report

    def _run_on_shared(
        self, plan: ExecutionPlan, backend: Backend
    ) -> tuple[list[ViewBlock], list[float]]:
        """Work-queue execution on the shared pool.

        ``min(n_workers, len(steps))`` claimer tasks pull step indices from
        a shared counter, bounding this run's concurrency without blocking
        pool threads on a semaphore. A step failure stops claimers from
        pulling further work; every claimed step finishes before the first
        exception propagates (same join-before-raise guarantee as the
        owned-pool modes).
        """
        steps = plan.steps
        if self.shared_pool.warm:
            with self._pool_lock:
                self.pool_reuses += 1
        token = current_token()
        next_index = 0
        index_lock = threading.Lock()
        results: list = [None] * len(steps)
        failures: list[BaseException] = []

        def claim() -> None:
            nonlocal next_index
            while True:
                if token is not None and token.should_stop():
                    return  # cancelled run: stop claiming, keep nothing held
                with index_lock:
                    if failures or next_index >= len(steps):
                        return
                    index = next_index
                    next_index += 1
                try:
                    results[index] = _scoped_run(token, steps[index], backend)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    with index_lock:
                        failures.append(exc)
                    return

        claimers = [
            self.shared_pool.submit(claim)
            for _ in range(min(self.n_workers, len(steps)))
        ]
        # Join-before-raise: every claimer must finish before a failure (or
        # cancellation, which claim() observes per step) propagates — so
        # this drain stays unconditional rather than checkpointed.
        # seedb-lint: disable=cancellation -- claim() checks the token per step; this join is bounded by it
        for future in claimers:
            future.result()
        # A cancel observed by claim() *between* steps leaves no failure
        # behind; re-raise it here rather than returning partial results.
        check_current()
        if failures:
            raise failures[0]

        blocks: list[ViewBlock] = []
        step_seconds: list[float] = []
        for outcome in results:
            if outcome is None:  # unclaimed trailing steps after a failure
                continue
            result, elapsed = outcome
            blocks.extend(result)
            step_seconds.append(elapsed)
        return blocks, step_seconds

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            else:
                self.pool_reuses += 1
            return self._pool

    def close(self) -> None:
        """Shut down an owned persistent pool (shared pools are not ours)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _timed_run(
    step: ExecutionStep, backend: Backend
) -> tuple[list[ViewBlock], float]:
    start = time.perf_counter()
    result = step.run(backend)
    return result, time.perf_counter() - start


def _scoped_run(
    token, step: ExecutionStep, backend: Backend
) -> tuple[list[ViewBlock], float]:
    """Run one step on a pool thread under the submitter's cancel token.

    Thread-local cancel scopes do not cross thread boundaries on their
    own; without this re-install the backend's per-statement checkpoints
    would never see a cancelled request from a parallel plan.
    """
    with cancel_scope(token):
        return _timed_run(step, backend)


def _drain(futures) -> None:
    """Cancel what hasn't started and wait out what has, ignoring errors."""
    for future in futures:
        future.cancel()
    for future in futures:
        if not future.cancelled():
            try:
                future.exception()
            except Exception:
                pass
