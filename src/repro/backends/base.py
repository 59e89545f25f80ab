"""The backend (DBMS) interface SeeDB is written against."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.db.query import AggregateQuery, GroupingSetsQuery, RowSelectQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.util.errors import BackendError


@dataclass(frozen=True)
class BackendCapabilities:
    """What the underlying DBMS can do; the optimizer adapts to these.

    Planner and engine feature-gating keys off this declaration — never
    off backend class identity — so a new backend (or a test flipping one
    flag) changes execution paths without touching any ``isinstance``.

    * ``grouping_sets`` — multiple group-by sets share one scan
      ("if the SQL GROUPING SETS functionality is available in the
      underlying DBMS, SEEDB can leverage that", §3.3). False steers the
      planner away from ``GROUPING_SETS`` steps and makes
      ``execute_grouping_sets`` a fallback (per-set queries or one UNION
      ALL statement).
    * ``native_sampling`` — :meth:`Backend.create_sample` materializes the
      sample inside the DBMS; False routes the sampling optimization
      through the client-side Bernoulli fallback
      (:meth:`Backend.create_sample_clientside`).

    Every backend must be safe to call from many threads at once: plan
    steps run concurrently on the process-wide worker pool
    (:func:`~repro.optimizer.parallel.run_steps`) and service sessions
    share one backend.
    """

    grouping_sets: bool
    native_sampling: bool = True


class Backend:
    """Abstract DBMS: table registry + query execution.

    All view queries SeeDB generates go through :meth:`execute` /
    :meth:`execute_grouping_sets`. ``queries_executed`` counts round trips
    to the DBMS — the unit the paper's combining optimizations minimize.

    Backends are shared by every session of a service process, so the two
    accounting counters — ``queries_executed`` and ``data_version`` — are
    kept exact under concurrency by a single lock (:attr:`_accounting_lock`)
    that every subclass mutation goes through. Subclasses must call
    ``super().__init__()``.
    """

    name: str = ""
    capabilities: BackendCapabilities

    def __init__(self) -> None:
        #: One lock guards both counters (and is reused by subclasses for
        #: their table-registry mutations): stats reads and cache
        #: invalidation see a single consistent accounting state.
        self._accounting_lock = threading.RLock()
        self._data_version = 0  # guarded-by: _accounting_lock
        self._queries_executed = 0  # guarded-by: _accounting_lock
        self._statements_executed = 0  # guarded-by: _accounting_lock
        self._metadata_queries_executed = 0  # guarded-by: _accounting_lock

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release held resources (connections, owned files).

        Part of the backend contract so every consumer can call
        ``backend.close()`` unconditionally; the base implementation holds
        nothing and is a no-op (idempotency is part of the contract —
        closing twice must be safe).
        """

    # -- data management -------------------------------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        """Load a table into the DBMS."""
        raise NotImplementedError

    def drop_table(self, name: str) -> None:
        """Remove a table (samples are created and dropped per session)."""
        raise NotImplementedError

    def has_table(self, name: str) -> bool:
        raise NotImplementedError

    def table_names(self) -> list[str]:
        """Names of every registered table (sorted).

        The cluster tier uses this to ship a backend's contents to worker
        replicas: ``fetch_table`` each name, re-register on the replica.
        """
        raise NotImplementedError

    def schema(self, table_name: str) -> Schema:
        """Schema (with dimension/measure roles) of a registered table."""
        raise NotImplementedError

    def row_count(self, table_name: str) -> int:
        raise NotImplementedError

    # -- execution --------------------------------------------------------

    def execute(self, query: "AggregateQuery | RowSelectQuery") -> Table:
        raise NotImplementedError

    def execute_grouping_sets(self, query: GroupingSetsQuery) -> list[Table]:
        """Execute every grouping set; backends without native support fall
        back to one query per set (correct, just less shared)."""
        raise NotImplementedError

    # -- support services --------------------------------------------------

    def fetch_table(self, name: str, max_rows: "int | None" = None) -> Table:
        """Materialize (a prefix of) a table for metadata collection."""
        raise NotImplementedError

    def create_sample(
        self, source: str, sample_name: str, fraction: float, seed: int = 0
    ) -> str:
        """Materialize a row sample of ``source`` as a new table; returns
        its name. Used by the sampling optimization (§3.3). Only called
        when ``capabilities.native_sampling`` holds; other backends go
        through :meth:`create_sample_clientside`."""
        raise NotImplementedError

    def create_sample_clientside(
        self, source: str, sample_name: str, fraction: float, seed: int = 0
    ) -> str:
        """Client-side sampling fallback: fetch, Bernoulli-sample, register.

        The capability-driven twin of :meth:`create_sample` for backends
        declaring ``native_sampling=False`` — the rows cross the wire once,
        the sample lands back in the DBMS via :meth:`register_derived` (so,
        like a native sample, it does *not* bump ``data_version``).
        """
        from repro.sampling.bernoulli import BernoulliSampler

        if not (0.0 < fraction <= 1.0):
            raise BackendError(f"sample fraction must be in (0, 1], got {fraction}")
        table = self.fetch_table(source)
        sample = BernoulliSampler(fraction).sample(table, seed=seed)
        self.register_derived(sample.rename(sample_name))
        return sample_name

    def register_derived(self, table: Table) -> None:
        """Register a derived artifact (a sample) without a version bump.

        Derived tables are owned by the cache layer keyed on
        ``data_version``; bumping the counter here would make every sample
        materialization self-invalidate the cache that requested it.
        """
        raise NotImplementedError

    # -- accounting --------------------------------------------------------

    @property
    def queries_executed(self) -> int:
        """Logical view queries since construction/reset.

        A combined statement (UNION ALL emulation) still counts one per
        grouping set — the unit the paper's combining optimizations
        minimize — while a *native* shared scan counts once.
        """
        with self._accounting_lock:
            return self._queries_executed

    @property
    def statements_executed(self) -> int:
        """Physical DBMS round trips since construction/reset.

        The companion counter to :attr:`queries_executed`: a UNION ALL
        batch is many logical queries but one statement; a native
        GROUPING SETS query is one of each.
        """
        with self._accounting_lock:
            return self._statements_executed

    @property
    def metadata_queries_executed(self) -> int:
        """Statistics/metadata round trips since construction/reset.

        Kept apart from :attr:`queries_executed` (the unit the paper's
        combining optimizations minimize): metadata lookups such as
        :meth:`row_count` must be observable — the conformance kit asserts
        a warm request issues none — without perturbing view-query
        accounting.
        """
        with self._accounting_lock:
            return self._metadata_queries_executed

    def reset_counters(self) -> None:
        with self._accounting_lock:
            self._queries_executed = 0
            self._statements_executed = 0
            self._metadata_queries_executed = 0

    def _record_queries(self, n: int = 1, statements: int = 1) -> None:
        """Atomically count ``n`` logical queries over ``statements`` trips."""
        with self._accounting_lock:
            self._queries_executed += n
            self._statements_executed += statements

    def _record_metadata_queries(self, n: int = 1) -> None:
        with self._accounting_lock:
            self._metadata_queries_executed += n

    @property
    def data_version(self) -> int:
        """Data-generation counter; changes whenever registered data does.

        Implementations bump it on :meth:`register_table` and
        :meth:`drop_table`. Derived artifacts (materialized samples created
        through :meth:`create_sample`) do not bump it — they are owned by
        the cache layer that keys on this counter.
        """
        with self._accounting_lock:
            return self._data_version

    def _bump_data_version(self) -> None:
        with self._accounting_lock:
            self._data_version += 1

    # -- shared helpers ----------------------------------------------------

    def _require_table(self, name: str) -> None:
        if not self.has_table(name):
            raise BackendError(f"backend {self.name!r} has no table {name!r}")


def decode_result_column(raw: list, dtype: DataType, column: str = "") -> "np.ndarray":
    """Convert one fetched SQL result column to the canonical numpy form.

    Shared by every SQL backend. NULLs become NaN (FLOAT), None-bearing
    object entries (STR), or NaT (DATE); the canonical representation has
    no NULL for INT/BOOL, so those raise a clear :class:`BackendError`
    instead of crashing with TypeError or silently coercing to False.
    """
    if dtype is DataType.FLOAT:
        return np.array(
            [float("nan") if v is None else float(v) for v in raw], dtype=np.float64
        )
    if dtype in (DataType.INT, DataType.BOOL):
        if any(v is None for v in raw):
            raise BackendError(
                f"NULL in {dtype.name} result column {column!r}: the canonical "
                "table representation has no NULL integers/booleans"
            )
        if dtype is DataType.INT:
            return np.array([int(v) for v in raw], dtype=np.int64)
        return np.array([bool(v) for v in raw], dtype=np.bool_)
    if dtype is DataType.DATE:
        return np.array(
            [
                np.datetime64("NaT") if v is None else np.datetime64(v, "D")
                for v in raw
            ],
            dtype="datetime64[D]",
        )
    array = np.empty(len(raw), dtype=object)
    for i, value in enumerate(raw):
        array[i] = value
    return array


def rows_to_table(name: str, schema: Schema, rows: list) -> Table:
    """Build a canonical Table from fetched SQL row tuples (shared)."""
    arrays = {}
    for index, spec in enumerate(schema):
        raw = [row[index] for row in rows]
        arrays[spec.name] = decode_result_column(raw, spec.dtype, spec.name)
    return Table(name, schema, arrays)


def materialize_sample(
    backend: Backend, source: str, sample_name: str, fraction: float, seed: int = 0
) -> str:
    """Materialize a sample the way the backend's capabilities dictate.

    The engine's single entry point for the sampling optimization:
    ``native_sampling`` picks between the in-DBMS path and the client-side
    Bernoulli fallback, so a backend (or a test) flips the path by
    declaration alone.
    """
    if backend.capabilities.native_sampling:
        return backend.create_sample(source, sample_name, fraction, seed=seed)
    return backend.create_sample_clientside(source, sample_name, fraction, seed=seed)

