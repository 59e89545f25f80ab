"""SQLite backend: SeeDB as a wrapper over a real relational DBMS.

Everything flows through generated SQL (:mod:`repro.backends.sqlgen`):
table loading, view queries, sampling. SQLite lacks GROUPING SETS, so the
capability flag steers the optimizer toward per-set queries or rollup
combining instead — exactly the "depends on the underlying DBMS" behaviour
the paper describes.

Concurrency: a statement runs on a connection leased for it alone, taken
from an idle list or opened when every connection is busy, so the backend
holds as many connections (all to one on-disk database file) as it ever
ran statements at once. That is what makes the parallel-execution
optimization (§3.3) safe here, and no idle thread holds a connection and
its page cache between statements.
"""

from __future__ import annotations

import math
import os
import sqlite3
import tempfile
import threading
from contextlib import contextmanager
from datetime import date, datetime
from typing import Iterator

import numpy as np

from repro.backends.base import Backend, BackendCapabilities, rows_to_table
from repro.backends.sqlgen import (
    quote_identifier,
    render_aggregate_query,
    render_grouping_sets_union,
    render_row_select,
    split_grouping_rows,
    union_key_positions,
)
from repro.db.query import (
    AggregateQuery,
    GroupingSetsQuery,
    RowSelectQuery,
    aggregate_result_schema,
)
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.testing.faults import fault_point
from repro.util.deadline import current_token
from repro.util.errors import BackendError

_SQL_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STR: "TEXT",
    DataType.BOOL: "INTEGER",
    DataType.DATE: "TEXT",
}

#: VM opcodes between two cancel checks of a running statement. Each check
#: is a Python call, so it takes the interpreter lock: at a few thousand
#: opcodes, statements on parallel claimers queue on that lock many times
#: a millisecond. Fifty thousand opcodes are a few tenths of a
#: millisecond of VM work, which bounds how late a cancel is seen.
PROGRESS_OPCODES = 50_000

#: Knuth multiplicative hash modulus/multiplier for deterministic sampling.
_HASH_MULTIPLIER = 2654435761
_HASH_MODULUS = 1_000_000


class SqliteBackend(Backend):
    """Backend over stdlib ``sqlite3``.

    Thread-safe through one leased connection per running statement, all
    to one database file.
    """

    name = "sqlite"
    capabilities = BackendCapabilities(
        grouping_sets=False,
        native_sampling=True,
    )

    def __init__(self, path: "str | None" = None):
        super().__init__()
        if path is None:
            handle, path = tempfile.mkstemp(prefix="seedb_", suffix=".sqlite")
            os.close(handle)
            self._owns_file = True
        else:
            self._owns_file = False
        self._path = path
        self._schemas: dict[str, Schema] = {}
        #: Every open connection, leased or idle; :meth:`close` releases
        #: them all. Opened with ``check_same_thread=False`` because a
        #: connection moves between threads from lease to lease; a lease
        #: gives it to one thread at a time.
        self._connections: list[sqlite3.Connection] = []  # guarded-by: _connections_lock
        #: Open connections no statement holds, most recently used last.
        self._idle: list[sqlite3.Connection] = []  # guarded-by: _connections_lock
        self._connections_lock = threading.Lock()

    # -- connection management ---------------------------------------------

    @contextmanager
    def _lease(self) -> "Iterator[sqlite3.Connection]":
        """A connection no other thread is using, for one statement or load.

        The most recently returned connection goes out first, so
        sequential statements reuse one warm page cache.
        """
        with self._connections_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = self._connect()
        try:
            yield connection
        finally:
            with self._connections_lock:
                # A connection close() took while leased stays closed.
                if connection in self._connections:
                    self._idle.append(connection)

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self._path, check_same_thread=False)
        connection.create_function("sqrt", 1, _safe_sqrt)
        # Analytics-session pragmas: SeeDB view queries are bulk loads
        # followed by read-heavy aggregate scans, so durability can be
        # traded away wholesale. WAL lets concurrent statements read under
        # a concurrent load; synchronous=OFF skips fsync on load (the
        # database is rebuilt per session); the page cache of up to 64 MiB
        # per connection keeps the working set of repeated per-view scans
        # resident.
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=OFF")
        connection.execute("PRAGMA cache_size=-65536")
        connection.execute("PRAGMA temp_store=MEMORY")
        with self._connections_lock:
            self._connections.append(connection)
        return connection

    @property
    def open_connections(self) -> int:
        """Connections opened and not yet closed (leak observability)."""
        with self._connections_lock:
            return len(self._connections)

    def close(self) -> None:
        """Close every open connection and delete an owned temp file.

        The WAL checkpoint on the final close is what keeps the
        ``-wal``/``-shm`` sidecar cleanup below correct under concurrent
        use.
        """
        with self._connections_lock:
            connections, self._connections = self._connections, []
            self._idle = []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - already-dead handle
                pass
        if self._owns_file and os.path.exists(self._path):
            os.unlink(self._path)
            # WAL mode leaves sidecar files next to the database.
            for suffix in ("-wal", "-shm"):
                sidecar = self._path + suffix
                if os.path.exists(sidecar):
                    os.unlink(sidecar)
            self._owns_file = False

    # -- data management -----------------------------------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        if table.name in self._schemas and not replace:
            raise BackendError(
                f"table {table.name!r} already registered (pass replace=True)"
            )
        self._create_and_fill(table)
        with self._accounting_lock:
            self._schemas[table.name] = table.schema
            self._bump_data_version()

    def register_derived(self, table: Table) -> None:
        self._create_and_fill(table)
        with self._accounting_lock:
            self._schemas[table.name] = table.schema

    def _create_and_fill(self, table: Table) -> None:
        quoted = quote_identifier(table.name)
        column_defs = ", ".join(
            f"{quote_identifier(spec.name)} {_SQL_TYPES[spec.dtype]}"
            for spec in table.schema
        )
        with self._lease() as connection, connection:
            # seedb-lint: disable=counter-accounting -- DDL + bulk load on registration; only view/metadata statements are audited
            connection.execute(f"DROP TABLE IF EXISTS {quoted}")
            connection.execute(f"CREATE TABLE {quoted} ({column_defs})")
            placeholders = ", ".join("?" for _ in table.schema.names)
            connection.executemany(
                f"INSERT INTO {quoted} VALUES ({placeholders})",
                _encoded_rows(table),
            )

    def drop_table(self, name: str) -> None:
        self._require_table(name)
        with self._lease() as connection, connection:
            connection.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")
        with self._accounting_lock:
            del self._schemas[name]
            self._bump_data_version()

    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def table_names(self) -> list[str]:
        return sorted(self._schemas)

    def schema(self, table_name: str) -> Schema:
        self._require_table(table_name)
        return self._schemas[table_name]

    def row_count(self, table_name: str) -> int:
        self._require_table(table_name)
        self._record_metadata_queries(1)
        with self._lease() as connection:
            cursor = connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(table_name)}"
            )
            return int(cursor.fetchone()[0])

    # -- execution -------------------------------------------------------------

    def execute(self, query: "AggregateQuery | RowSelectQuery") -> Table:
        self._require_table(query.table)
        if isinstance(query, RowSelectQuery):
            sql = render_row_select(query)
            rows = self._run(sql)
            return self._rows_to_table(
                f"{query.table}_selected", self._schemas[query.table], rows
            )
        sql = render_aggregate_query(query)
        rows = self._run(sql)
        return self._rows_to_table(
            f"{query.table}_view", self._result_schema(query), rows
        )

    def execute_grouping_sets(self, query: GroupingSetsQuery) -> list[Table]:
        # SQLite has no GROUPING SETS; emulate them with one UNION ALL
        # statement (one round trip, one prepared plan) instead of N
        # separate queries. ``queries_executed`` still counts one logical
        # query per set so optimizer benchmarks stay comparable.
        singles = query.as_single_queries()
        if len(singles) == 1:
            return [self.execute(singles[0])]
        self._require_table(query.table)
        sql = render_grouping_sets_union(query)
        rows = self._run(sql, logical_queries=len(singles))
        per_set = split_grouping_rows(
            rows, singles, union_key_positions(query), int
        )
        return [
            self._rows_to_table(
                f"{query.table}_view", self._result_schema(single), set_rows
            )
            for single, set_rows in zip(singles, per_set)
        ]

    # -- support services ---------------------------------------------------------

    def fetch_table(self, name: str, max_rows: "int | None" = None) -> Table:
        self._require_table(name)
        sql = f"SELECT * FROM {quote_identifier(name)}"
        if max_rows is not None:
            sql += f" LIMIT {int(max_rows)}"
        rows = self._run(sql)
        return self._rows_to_table(name, self._schemas[name], rows)

    def create_sample(
        self, source: str, sample_name: str, fraction: float, seed: int = 0
    ) -> str:
        self._require_table(source)
        if not (0.0 < fraction <= 1.0):
            raise BackendError(f"sample fraction must be in (0, 1], got {fraction}")
        threshold = int(fraction * _HASH_MODULUS)
        quoted_source = quote_identifier(source)
        quoted_sample = quote_identifier(sample_name)
        with self._lease() as connection, connection:
            connection.execute(f"DROP TABLE IF EXISTS {quoted_sample}")
            connection.execute(
                f"CREATE TABLE {quoted_sample} AS SELECT * FROM {quoted_source} "
                f"WHERE ((rowid * {_HASH_MULTIPLIER} + {int(seed)}) "
                f"% {_HASH_MODULUS}) < {threshold}"
            )
        self._schemas[sample_name] = self._schemas[source]
        return sample_name

    # -- internals --------------------------------------------------------------------

    def _run(self, sql: str, logical_queries: int = 1) -> list[tuple]:
        # A UNION ALL batch is one round trip but several logical view
        # queries; the counter tracks the latter (the unit the paper's
        # combining optimizations minimize).
        self._record_queries(logical_queries)
        fault_point("backend.execute")
        token = current_token()
        if token is not None:
            token.check()
        with self._lease() as connection:
            if token is not None:
                # Cooperative cancellation: the progress handler fires every
                # PROGRESS_OPCODES VM opcodes; a nonzero return interrupts
                # the statement, which surfaces as
                # OperationalError("interrupted").
                connection.set_progress_handler(
                    lambda: 1 if token.should_stop() else 0, PROGRESS_OPCODES
                )
            try:
                cursor = connection.execute(sql)
                return cursor.fetchall()
            except sqlite3.Error as exc:
                if token is not None:
                    error = token.error()
                    if error is not None and "interrupt" in str(exc).lower():
                        raise error from exc
                raise BackendError(f"sqlite error for SQL {sql!r}: {exc}") from exc
            finally:
                if token is not None:
                    connection.set_progress_handler(None, 0)

    def _result_schema(self, query: AggregateQuery) -> Schema:
        return aggregate_result_schema(self._schemas[query.table], query)

    @staticmethod
    def _rows_to_table(name: str, schema: Schema, rows: list[tuple]) -> Table:
        return rows_to_table(name, schema, rows)

    def __repr__(self) -> str:
        return f"SqliteBackend(path={self._path!r}, tables={len(self._schemas)})"


def _safe_sqrt(value: "float | None") -> "float | None":
    if value is None or value < 0:
        return None
    return math.sqrt(value)


#: Value types sqlite stores as they are (``bool`` is not ``int`` here:
#: ``type(True) is bool``).
_STORABLE_TYPES = frozenset({int, str, type(None)})


#: Rows encoded at a time: every column's Python values for one batch are
#: alive at once, so a large table loads in bounded memory.
_LOAD_BATCH_ROWS = 65_536


def _encoded_rows(table: Table) -> "Iterator[tuple]":
    """The table's rows as sqlite-storable tuples, encoded column by column."""
    arrays = [table.columns[name] for name in table.schema.names]
    for start in range(0, table.num_rows, _LOAD_BATCH_ROWS):
        stop = start + _LOAD_BATCH_ROWS
        yield from zip(*(_encode_column(array[start:stop]) for array in arrays))


def _encode_column(array: np.ndarray) -> list:
    """One column's values as :func:`_encode_value` gives them.

    ``tolist()`` converts numpy scalars as ``.item()`` does (NaT becomes
    None), so only what is left — NaN, bools, dates, odd objects — needs
    a per-value look.
    """
    kind = array.dtype.kind
    if kind == "b":
        return array.astype(np.int64).tolist()
    values = array.tolist()
    if kind in "iu":
        return values
    if kind == "f":
        for index in np.flatnonzero(np.isnan(array)).tolist():
            values[index] = None
        return values
    if kind == "O" and set(map(type, values)) <= _STORABLE_TYPES:
        return values
    return [_encode_value(value) for value in values]


def _encode_value(value: object) -> object:
    """One table value as sqlite stores it: a Python scalar, NaN as NULL,
    a bool as 0/1, a date as ``YYYY-MM-DD`` text."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.datetime64):
        return str(value)
    if isinstance(value, (datetime, date)):
        return value.isoformat()[:10]
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value != value:  # NaN -> NULL
        return None
    return value
