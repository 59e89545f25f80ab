"""SQLite backend: SeeDB as a wrapper over a real relational DBMS.

Everything flows through generated SQL (:mod:`repro.backends.sqlgen`):
table loading, view queries, sampling. SQLite lacks GROUPING SETS, so the
capability flag steers the optimizer toward per-set queries or rollup
combining instead — exactly the "depends on the underlying DBMS" behaviour
the paper describes.

Concurrency: SQLite connections must not cross threads, so the backend
keeps one connection per thread (all pointing at one on-disk database
file), which is what makes the parallel-execution optimization (§3.3) safe
to exercise here.
"""

from __future__ import annotations

import math
import os
import sqlite3
import tempfile
import threading
from datetime import date, datetime

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

#: Knuth multiplicative hash modulus/multiplier for deterministic sampling.
_HASH_MULTIPLIER = 2654435761
_HASH_MODULUS = 1_000_000


class SqliteBackend(Backend):
    """Backend over stdlib ``sqlite3``.

    Thread-safe through one connection per thread to one database file.
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
        self._local = threading.local()
        self._schemas: dict[str, Schema] = {}
        #: Every connection ever opened, regardless of owning thread.
        #: Short-lived service worker threads abandon their thread-local
        #: connection when they exit; tracking them here is what lets
        #: :meth:`close` release every file handle (connections are opened
        #: with ``check_same_thread=False`` purely so close() may finalize
        #: them cross-thread — each is still *used* by one thread only).
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()

    # -- connection management ---------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(self._path, check_same_thread=False)
            connection.create_function("sqrt", 1, _safe_sqrt)
            # Analytics-session pragmas: SeeDB view queries are bulk loads
            # followed by read-heavy aggregate scans, so durability can be
            # traded away wholesale. WAL lets the worker pool's reader
            # threads proceed under a concurrent load; synchronous=OFF skips
            # fsync on load (the database is rebuilt per session); the 64 MiB
            # page cache keeps the working set of repeated per-view scans
            # resident.
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=OFF")
            connection.execute("PRAGMA cache_size=-65536")
            connection.execute("PRAGMA temp_store=MEMORY")
            with self._connections_lock:
                self._connections.append(connection)
            self._local.connection = connection
        return connection

    @property
    def open_connections(self) -> int:
        """Connections opened and not yet closed (leak observability)."""
        with self._connections_lock:
            return len(self._connections)

    def close(self) -> None:
        """Close every live connection and delete an owned temp file.

        Connections opened by worker threads that have since exited are
        closed here too — the WAL checkpoint on the final close is what
        keeps the ``-wal``/``-shm`` sidecar cleanup below correct under
        concurrent use.
        """
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - already-dead handle
                pass
        self._local.connection = None
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
        connection = self._connection()
        quoted = quote_identifier(table.name)
        column_defs = ", ".join(
            f"{quote_identifier(spec.name)} {_SQL_TYPES[spec.dtype]}"
            for spec in table.schema
        )
        with connection:
            # seedb-lint: disable=counter-accounting -- DDL + bulk load on registration; only view/metadata statements are audited
            connection.execute(f"DROP TABLE IF EXISTS {quoted}")
            connection.execute(f"CREATE TABLE {quoted} ({column_defs})")
            placeholders = ", ".join("?" for _ in table.schema.names)
            connection.executemany(
                f"INSERT INTO {quoted} VALUES ({placeholders})",
                (_encode_row(row) for row in table.iter_rows()),
            )

    def drop_table(self, name: str) -> None:
        self._require_table(name)
        with self._connection() as connection:
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
        cursor = self._connection().execute(
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
        with self._connection() as connection:
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
        connection = self._connection()
        token = current_token()
        if token is not None:
            # Cooperative cancellation: the progress handler fires every N
            # VM opcodes; a nonzero return interrupts the statement, which
            # surfaces as OperationalError("interrupted") below.
            token.check()
            connection.set_progress_handler(
                lambda: 1 if token.should_stop() else 0, 4000
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


def _encode_row(row: tuple) -> tuple:
    """Convert one table row into sqlite-storable values."""
    encoded = []
    for value in row:
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, np.datetime64):
            encoded.append(str(value))
        elif isinstance(value, (datetime, date)):
            encoded.append(value.isoformat()[:10])
        elif isinstance(value, bool):
            encoded.append(int(value))
        elif isinstance(value, float) and value != value:  # NaN -> NULL
            encoded.append(None)
        else:
            encoded.append(value)
    return tuple(encoded)


