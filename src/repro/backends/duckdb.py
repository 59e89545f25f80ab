"""DuckDB backend: a real columnar engine behind the Backend seam.

This is the backend the paper's sharing optimizations were designed for:
DuckDB executes ``GROUP BY GROUPING SETS`` natively over one shared
columnar scan, so a :class:`~repro.db.query.GroupingSetsQuery` is one
physical statement *and* one logical query — unlike the SQLite UNION ALL
emulation, which shares the round trip but still evaluates one arm per
set. Results come back through ``fetchnumpy`` (columnar, zero-copy from
DuckDB's vectors into numpy) with a row-decode fallback for exotic types.

The ``duckdb`` wheel is an optional extra: this module imports without
it, and constructing :class:`DuckDbBackend` raises a clear
:class:`~repro.util.errors.BackendError` when it is absent (conformance
and benchmark cells skip cleanly instead of failing).

Concurrency follows DuckDB's documented model: one root connection per
backend, one ``.cursor()`` clone per thread (cursors share the database,
including an in-memory one).
"""

from __future__ import annotations

import threading
from datetime import datetime

import numpy as np

from repro.backends.base import Backend, BackendCapabilities, rows_to_table
from repro.backends.sqlgen import (
    quote_identifier,
    render_aggregate_query,
    render_grouping_sets_native,
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
    grouping_key_name,
)
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.testing.faults import fault_point
from repro.util.deadline import current_token
from repro.util.errors import BackendError

try:  # pragma: no cover - trivially environment-dependent
    import duckdb as _duckdb
except ImportError:  # pragma: no cover
    _duckdb = None

_SQL_TYPES = {
    DataType.INT: "BIGINT",
    DataType.FLOAT: "DOUBLE",
    DataType.STR: "VARCHAR",
    DataType.BOOL: "BOOLEAN",
    DataType.DATE: "DATE",
}


def duckdb_available() -> bool:
    """Whether the optional ``duckdb`` wheel is importable."""
    return _duckdb is not None


class DuckDbBackend(Backend):
    """Backend over the optional ``duckdb`` package.

    ``path=None`` serves an in-memory database (DuckDB's own default); a
    path serves — and creates, but never deletes — a database file.
    ``force_union_fallback=True`` disables the native grouping-sets path
    and runs the same UNION ALL emulation SQLite uses — the knob the
    shared-scan benchmarks and conformance tests flip to compare the two
    paths on one engine. Thread-safe through one cursor per thread.
    """

    name = "duckdb"
    capabilities = BackendCapabilities(
        grouping_sets=True,
        native_sampling=True,
    )

    def __init__(
        self, path: "str | None" = None, force_union_fallback: bool = False
    ):
        if _duckdb is None:
            raise BackendError(
                "the 'duckdb' package is not installed; install the "
                "optional extra (pip install duckdb) or use the memory/"
                "sqlite backends"
            )
        super().__init__()
        if path is None:
            path = ":memory:"
        self._path = path
        #: Keeps the declared capability (the planner still plans shared
        #: scans) but executes each GroupingSetsQuery via the UNION ALL
        #: emulation — the knob benchmarks/tests flip to compare the two
        #: execution paths on one engine for the same plan.
        self._force_union_fallback = force_union_fallback
        self._root = _duckdb.connect(path)
        self._local = threading.local()
        self._schemas: dict[str, Schema] = {}
        #: Every cursor handed out, regardless of owning thread, so
        #: :meth:`close` can finalize them all (mirrors SqliteBackend).
        self._cursors: list = []
        self._cursors_lock = threading.Lock()
        #: Serializes sample materializations: the seeded-scan thread
        #: pinning below is a database-wide setting, so two concurrent
        #: create_sample calls must not interleave their SET/restore.
        self._sample_lock = threading.Lock()
        self._closed = False

    # -- connection management ---------------------------------------------

    def _connection(self):
        if self._closed:
            raise BackendError("duckdb backend is closed")
        cursor = getattr(self._local, "cursor", None)
        if cursor is None:
            cursor = self._root.cursor()
            with self._cursors_lock:
                self._cursors.append(cursor)
            self._local.cursor = cursor
        return cursor

    @property
    def open_connections(self) -> int:
        """Cursors opened and not yet closed (leak observability); the
        root connection is excluded — it lives exactly as long as the
        backend."""
        with self._cursors_lock:
            return len(self._cursors)

    def close(self) -> None:
        """Close every cursor and the root connection (idempotent)."""
        with self._cursors_lock:
            cursors, self._cursors = self._cursors, []
        for cursor in cursors:
            try:
                cursor.close()
            except Exception:  # pragma: no cover - already-dead handle
                pass
        if not self._closed:
            self._closed = True
            try:
                self._root.close()
            except Exception:  # pragma: no cover
                pass
        self._local.cursor = None

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
        self._sql(connection, f"DROP TABLE IF EXISTS {quoted}")
        self._sql(connection, f"CREATE TABLE {quoted} ({column_defs})")
        rows = [_encode_row(row) for row in table.iter_rows()]
        if rows:
            placeholders = ", ".join("?" for _ in table.schema.names)
            try:
                connection.executemany(
                    f"INSERT INTO {quoted} VALUES ({placeholders})", rows
                )
            except Exception as exc:
                raise BackendError(
                    f"duckdb error loading table {table.name!r}: {exc}"
                ) from exc

    def drop_table(self, name: str) -> None:
        self._require_table(name)
        self._sql(self._connection(), f"DROP TABLE IF EXISTS {quote_identifier(name)}")
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
        sql = f"SELECT COUNT(*) FROM {quote_identifier(table_name)}"
        return int(self._sql(self._connection(), sql).fetchall()[0][0])

    # -- execution -------------------------------------------------------------

    def execute(self, query: "AggregateQuery | RowSelectQuery") -> Table:
        self._require_table(query.table)
        if isinstance(query, RowSelectQuery):
            sql = render_row_select(query)
            return self._run_to_table(
                sql, f"{query.table}_selected", self._schemas[query.table]
            )
        sql = render_aggregate_query(query, native_var_std=True, rowid_base=0)
        return self._run_to_table(
            sql, f"{query.table}_view", self._result_schema(query)
        )

    def execute_grouping_sets(self, query: GroupingSetsQuery) -> list[Table]:
        singles = query.as_single_queries()
        if len(singles) == 1:
            return [self.execute(singles[0])]
        self._require_table(query.table)
        if self._force_union_fallback:
            return self._grouping_sets_union(query, singles)
        return self._grouping_sets_native(query, singles)

    def _grouping_sets_native(
        self, query: GroupingSetsQuery, singles
    ) -> list[Table]:
        """Native shared scan: one statement, one logical query.

        The GROUPING() bitmask column disambiguates "key not in this
        row's set" NULLs from genuine NULL data values in a key.
        """
        sql, union_keys, mask_to_set = render_grouping_sets_native(
            query, native_var_std=True, rowid_base=0
        )
        rows = self._run(sql, logical_queries=1)
        # Positions come from the renderer's returned key list — the
        # statement's actual column order, not a re-derivation.
        positions = {
            grouping_key_name(key): index for index, key in enumerate(union_keys)
        }
        per_set = split_grouping_rows(
            rows, singles, positions, lambda tag: mask_to_set[int(tag)]
        )
        return [
            rows_to_table(
                f"{query.table}_view", self._result_schema(single), set_rows
            )
            for single, set_rows in zip(singles, per_set)
        ]

    def _grouping_sets_union(
        self, query: GroupingSetsQuery, singles
    ) -> list[Table]:
        """The SQLite-style emulation: one UNION ALL statement, one logical
        query per set (the comparison baseline for the native path)."""
        sql = render_grouping_sets_union(
            query, native_var_std=True, rowid_base=0
        )
        rows = self._run(sql, logical_queries=len(singles))
        per_set = split_grouping_rows(
            rows, singles, union_key_positions(query), int
        )
        return [
            rows_to_table(
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
        cursor = self._sql(self._connection(), sql)
        return self._extract(cursor, name, self._schemas[name])

    def create_sample(
        self, source: str, sample_name: str, fraction: float, seed: int = 0
    ) -> str:
        self._require_table(source)
        if not (0.0 < fraction <= 1.0):
            raise BackendError(f"sample fraction must be in (0, 1], got {fraction}")
        quoted_source = quote_identifier(source)
        quoted_sample = quote_identifier(sample_name)
        connection = self._connection()
        # Native Bernoulli sampling with a fixed seed. Seeded samples are
        # only reproducible on a single-threaded scan, and equal sample
        # names must imply equal content (the cache layer's invariant), so
        # the scan briefly pins the database-wide thread count — under a
        # lock (two materializations must not interleave SET/restore) and
        # restoring the operator's own setting, not the default.
        with self._sample_lock:
            previous = self._sql(
                connection, "SELECT current_setting('threads')"
            ).fetchone()[0]
            self._sql(connection, "SET threads TO 1")
            try:
                self._sql(connection, f"DROP TABLE IF EXISTS {quoted_sample}")
                self._sql(
                    connection,
                    f"CREATE TABLE {quoted_sample} AS "
                    f"SELECT * FROM {quoted_source} "
                    f"USING SAMPLE {fraction * 100.0} PERCENT "
                    f"(bernoulli, {int(seed)})",
                )
            finally:
                self._sql(connection, f"SET threads TO {int(previous)}")
        with self._accounting_lock:
            self._schemas[sample_name] = self._schemas[source]
        return sample_name

    # -- internals --------------------------------------------------------------------

    def _sql(self, connection, sql: str):
        """Execute uncounted maintenance SQL (DDL, loads, counts)."""
        token = current_token()
        unregister = None
        if token is not None:
            # DuckDB can interrupt a running statement from another thread;
            # an explicit cancel fires it immediately. Deadline expiry is
            # caught by the checkpoint here (per statement) — good enough
            # because view queries on one request are issued sequentially.
            token.check()
            interrupt = getattr(connection, "interrupt", None)
            if interrupt is not None:
                unregister = token.on_cancel(interrupt)
        try:
            # _sql is the shared raw seam; counted callers (_run,
            # _run_to_table, row_count) record before reaching it.
            # seedb-lint: disable=counter-accounting -- bare DDL/loads are deliberately uncounted
            return connection.execute(sql)
        except Exception as exc:
            if token is not None:
                error = token.error()
                if error is not None and "interrupt" in str(exc).lower():
                    raise error from exc
            raise BackendError(f"duckdb error for SQL {sql!r}: {exc}") from exc
        finally:
            if unregister is not None:
                unregister()

    def _run(self, sql: str, logical_queries: int = 1) -> list[tuple]:
        """Execute one counted view-query statement, returning its rows."""
        self._record_queries(logical_queries)
        fault_point("backend.execute")
        cursor = self._sql(self._connection(), sql)
        return cursor.fetchall()

    def _run_to_table(self, sql: str, name: str, schema: Schema) -> Table:
        self._record_queries(1)
        cursor = self._sql(self._connection(), sql)
        return self._extract(cursor, name, schema)

    def _extract(self, cursor, name: str, schema: Schema) -> Table:
        """Columnar result extraction: ``fetchnumpy`` when it can represent
        the result (zero-copy from DuckDB vectors), row decode otherwise."""
        try:
            data = cursor.fetchnumpy()
        except Exception:
            return rows_to_table(name, schema, cursor.fetchall())
        try:
            return _table_from_numpy(name, schema, data)
        except _NumpyExtractUnsupported:
            # The statement already ran; rebuild rows from the fetched
            # arrays (masks preserved as None) for result shapes numpy
            # cannot hold canonically.
            return rows_to_table(name, schema, _rows_from_numpy(data, schema))

    def _result_schema(self, query: AggregateQuery) -> Schema:
        return aggregate_result_schema(self._schemas[query.table], query)

    def __repr__(self) -> str:
        return f"DuckDbBackend(path={self._path!r}, tables={len(self._schemas)})"


class _NumpyExtractUnsupported(Exception):
    """Raised when a fetchnumpy column cannot become a canonical array."""


def _rows_from_numpy(data: dict, schema: Schema) -> list:
    """Row tuples from a ``fetchnumpy`` dict, preserving NULLs as None.

    The row-decode fallback for result shapes :func:`_table_from_numpy`
    cannot canonicalize; masked entries become None (never the masked
    array's fill value) so NULL semantics survive the detour.
    """
    columns = []
    for spec in schema:
        if spec.name not in data:
            raise BackendError(f"duckdb result is missing column {spec.name!r}")
        column = data[spec.name]
        mask = np.ma.getmaskarray(column) if np.ma.isMaskedArray(column) else None
        values = np.ma.getdata(column) if np.ma.isMaskedArray(column) else column
        columns.append(
            [
                None if (mask is not None and mask[i]) else values[i]
                for i in range(len(values))
            ]
        )
    return list(zip(*columns))


def _encode_row(row: tuple) -> tuple:
    """Convert one table row into duckdb-bindable values."""
    encoded = []
    for value in row:
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, np.datetime64):
            encoded.append(value.astype("datetime64[D]").item())
        elif isinstance(value, datetime):
            encoded.append(value.date())
        elif isinstance(value, float) and value != value:  # NaN -> NULL
            encoded.append(None)
        else:
            encoded.append(value)
    return tuple(encoded)




def _table_from_numpy(name: str, schema: Schema, data: dict) -> Table:
    """Build a Table from a ``fetchnumpy`` result dict.

    DuckDB returns masked arrays where the column held NULLs; the
    canonical representations are NaN (FLOAT), None-bearing object arrays
    (STR), and NaT (DATE). NULL in an INT/BOOL column has no canonical
    representation — those results take the row-decode path.
    """
    arrays: dict[str, np.ndarray] = {}
    for spec in schema:
        if spec.name not in data:
            raise _NumpyExtractUnsupported(spec.name)
        column = data[spec.name]
        mask = np.ma.getmaskarray(column) if np.ma.isMaskedArray(column) else None
        values = np.ma.getdata(column) if np.ma.isMaskedArray(column) else column
        if spec.dtype is DataType.FLOAT:
            out = np.asarray(values, dtype=np.float64).copy()
            if mask is not None:
                out[mask] = np.nan
            arrays[spec.name] = out
        elif spec.dtype is DataType.INT:
            if mask is not None and mask.any():
                raise _NumpyExtractUnsupported(spec.name)
            arrays[spec.name] = np.asarray(values, dtype=np.int64)
        elif spec.dtype is DataType.BOOL:
            if mask is not None and mask.any():
                raise _NumpyExtractUnsupported(spec.name)
            arrays[spec.name] = np.asarray(values, dtype=np.bool_)
        elif spec.dtype is DataType.DATE:
            try:
                out = np.asarray(values).astype("datetime64[D]")
            except (TypeError, ValueError) as exc:
                raise _NumpyExtractUnsupported(spec.name) from exc
            if mask is not None:
                out = out.copy()
                out[mask] = np.datetime64("NaT")
            arrays[spec.name] = out
        else:  # STR
            out = np.empty(len(values), dtype=object)
            for i, value in enumerate(values):
                if mask is not None and mask[i]:
                    out[i] = None
                else:
                    out[i] = str(value) if not isinstance(value, str) else value
            arrays[spec.name] = out
    return Table(name, schema, arrays)
