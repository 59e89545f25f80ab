"""The query execution engine of the in-memory DBMS.

Besides executing the three logical query shapes, the engine keeps exact
:class:`ExecutionStats` — table scans, rows scanned, queries executed — so
SeeDB's shared-computation optimizations (paper §3.3) can be validated by
counting work, not only by timing it. One executed query over a table of
``n`` rows costs one scan and ``n`` rows regardless of how many aggregates
or grouping sets it carries; that is exactly the sharing the optimizer
exploits.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.db.aggregates import Aggregate
from repro.db.catalog import Catalog
from repro.db.expressions import split_partition
from repro.db.groupby import (
    Factorization,
    aggregate_by_codes,
    finalize_aggregates,
)
from repro.db.grouping_sets import ColumnFactorizationCache, execute_sets_shared_scan
from repro.db.query import (
    AggregateQuery,
    FlagColumn,
    GroupingKey,
    GroupingSetsQuery,
    Query,
    RowSelectQuery,
    grouping_key_name,
)
from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType
from repro.util.errors import QueryError


@dataclass
class ExecutionStats:
    """Work counters accumulated by an :class:`Engine`."""

    queries: int = 0
    table_scans: int = 0
    rows_scanned: int = 0
    groups_produced: int = 0
    #: One engine serves every session of a service process; the lock keeps
    #: the counters exact when queries run on concurrent worker threads.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.queries = 0
            self.table_scans = 0
            self.rows_scanned = 0
            self.groups_produced = 0

    def count_scan(self, rows: int) -> None:
        """Atomically record one query executing one scan over ``rows``."""
        with self._lock:
            self.queries += 1
            self.table_scans += 1
            self.rows_scanned += rows

    def count_groups(self, n: int) -> None:
        """Atomically record ``n`` output groups."""
        with self._lock:
            self.groups_produced += n

    def snapshot(self) -> "ExecutionStats":
        """An independent copy (for before/after diffs in benchmarks)."""
        return ExecutionStats(
            self.queries, self.table_scans, self.rows_scanned, self.groups_produced
        )

    def delta(self, before: "ExecutionStats") -> "ExecutionStats":
        """Counters accumulated since ``before``."""
        return ExecutionStats(
            self.queries - before.queries,
            self.table_scans - before.table_scans,
            self.rows_scanned - before.rows_scanned,
            self.groups_produced - before.groups_produced,
        )


@dataclass
class Engine:
    """Executes logical queries against tables registered in a catalog."""

    catalog: Catalog
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def execute(self, query: Query) -> "Table | list[Table]":
        """Dispatch on the query shape."""
        if isinstance(query, RowSelectQuery):
            return self.execute_select(query)
        if isinstance(query, AggregateQuery):
            return self.execute_aggregate(query)
        if isinstance(query, GroupingSetsQuery):
            return self.execute_grouping_sets(query)
        raise QueryError(f"unsupported query type {type(query).__name__}")

    def execute_select(self, query: RowSelectQuery) -> Table:
        """Filter the base table by the query predicate (then LIMIT)."""
        table = self.catalog.get(query.table)
        self._count_scan(table)
        if query.predicate is not None:
            mask = query.predicate.evaluate(table)
            table = table.mask(mask, name=f"{table.name}_selected")
        if query.limit is not None:
            table = table.head(query.limit)
        return table

    def execute_aggregate(self, query: AggregateQuery) -> Table:
        """Filter, group, aggregate — one scan."""
        table = self.catalog.get(query.table)
        self._count_scan(table)
        filtered = self._apply_predicate(table, query.predicate)
        flag_arrays = self._materialize_flags(filtered, query.group_by)
        cache = ColumnFactorizationCache(filtered, flag_arrays)
        factorization = cache.factorize_set(query.group_by)
        measure_arrays = {
            aggregate.column: filtered.column(aggregate.column)
            for aggregate in query.aggregates
            if aggregate.column is not None
        }
        partials = aggregate_by_codes(factorization, measure_arrays, query.aggregates)
        finalized = finalize_aggregates(partials, query.aggregates)
        self.stats.count_groups(factorization.n_groups)
        return self._build_result(
            table, query.group_by, factorization, finalized, query.aggregates
        )

    def execute_grouping_sets(self, query: GroupingSetsQuery) -> list[Table]:
        """Execute all grouping sets over one shared scan."""
        table = self.catalog.get(query.table)
        self._count_scan(table)
        filtered = self._apply_predicate(table, query.predicate)
        all_keys = tuple(
            key for key_set in query.sets for key in key_set
        )
        flag_arrays = self._materialize_flags(filtered, all_keys)

        def build(factorization: Factorization, finalized, key_set):
            self.stats.count_groups(factorization.n_groups)
            return self._build_result(
                table, key_set, factorization, finalized, query.aggregates
            )

        return execute_sets_shared_scan(
            filtered, query.sets, query.aggregates, flag_arrays, build
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _count_scan(self, table: Table) -> None:
        self.stats.count_scan(table.num_rows)

    @staticmethod
    def _apply_predicate(table: Table, predicate) -> Table:
        # A row partition is a strided view of every column, not a mask:
        # nothing is copied until the rest of the predicate filters it.
        partition, predicate = split_partition(predicate)
        if partition is not None:
            table = table.take(slice(partition.index, None, partition.of))
        if predicate is None:
            return table
        return table.mask(predicate.evaluate(table))

    @staticmethod
    def _materialize_flags(
        table: Table, keys: tuple[GroupingKey, ...]
    ) -> dict[str, np.ndarray]:
        """Evaluate every FlagColumn among ``keys`` to an int64 0/1 array."""
        flags: dict[str, np.ndarray] = {}
        for key in keys:
            if isinstance(key, FlagColumn) and key.name not in flags:
                flags[key.name] = key.predicate.evaluate(table).astype(np.int64)
        return flags

    @staticmethod
    def _build_result(
        base_table: Table,
        group_by: tuple[GroupingKey, ...],
        factorization: Factorization,
        finalized: dict[str, np.ndarray],
        aggregates: tuple[Aggregate, ...],
    ) -> Table:
        """Assemble the result table: key columns then aggregate columns."""
        specs: list[ColumnSpec] = []
        arrays: dict[str, np.ndarray] = {}
        for key in group_by:
            name = grouping_key_name(key)
            key_values = factorization.keys[name]
            if isinstance(key, FlagColumn):
                dtype = DataType.INT
                semantic = None
            else:
                base_spec = base_table.schema[name]
                dtype = base_spec.dtype
                semantic = base_spec.semantic
                if dtype is DataType.STR:
                    key_values = np.asarray(key_values, dtype=object)
            specs.append(ColumnSpec(name, dtype, AttributeRole.DIMENSION, semantic))
            arrays[name] = key_values
        for aggregate in aggregates:
            specs.append(
                ColumnSpec(aggregate.alias, DataType.FLOAT, AttributeRole.MEASURE)
            )
            # np.bincount yields int64 for empty inputs; results are FLOAT.
            arrays[aggregate.alias] = np.asarray(
                finalized[aggregate.alias], dtype=np.float64
            )
        key_names = "_".join(grouping_key_name(k) for k in group_by) or "all"
        return Table(f"{base_table.name}_by_{key_names}", Schema(tuple(specs)), arrays)
