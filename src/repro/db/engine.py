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

from repro.db.catalog import Catalog
from repro.db.expressions import Expression, split_partition
from repro.db.groupby import aggregate_by_codes, combine_codes, compact_codes
from repro.db.query import (
    AggregateQuery,
    FlagColumn,
    GroupingKey,
    GroupingSetsQuery,
    Query,
    RowSelectQuery,
    aggregate_result_schema,
    grouping_key_name,
)
from repro.db.table import Table
from repro.util.errors import QueryError

#: The dictionary of a flag column: its codes are the 0/1 flag itself.
_FLAG_UNIQUES = np.array([0, 1], dtype=np.int64)


@dataclass
class ExecutionStats:
    """Work counters accumulated by an :class:`Engine`."""

    queries: int = 0
    table_scans: int = 0
    rows_scanned: int = 0
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

    def count_scan(self, rows: int) -> None:
        """Atomically record one query executing one scan over ``rows``."""
        with self._lock:
            self.queries += 1
            self.table_scans += 1
            self.rows_scanned += rows

    def snapshot(self) -> "ExecutionStats":
        """An independent copy (for before/after diffs in benchmarks)."""
        return ExecutionStats(self.queries, self.table_scans, self.rows_scanned)

    def delta(self, before: "ExecutionStats") -> "ExecutionStats":
        """Counters accumulated since ``before``."""
        return ExecutionStats(
            self.queries - before.queries,
            self.table_scans - before.table_scans,
            self.rows_scanned - before.rows_scanned,
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
        self.stats.count_scan(table.num_rows)
        if query.predicate is not None:
            mask = query.predicate.evaluate(table)
            table = table.mask(mask, name=f"{table.name}_selected")
        if query.limit is not None:
            table = table.head(query.limit)
        return table

    def execute_aggregate(self, query: AggregateQuery) -> Table:
        """Filter, group, aggregate — a one-set grouping-sets query."""
        (result,) = self.execute_grouping_sets(
            GroupingSetsQuery(
                query.table, (query.group_by,), query.aggregates, query.predicate
            )
        )
        return result

    def execute_grouping_sets(self, query: GroupingSetsQuery) -> list[Table]:
        """Execute every grouping set over one shared scan.

        The WHERE clause is evaluated once into the row positions it keeps
        (a row partition is a strided view, no copy), and only what the
        query reads is cut by them: each grouping key's codes from the
        table's dictionary encoding (:meth:`Table.codes`, no sort) — a
        flag's from its evaluated 0/1 array — and each measure with its
        NULL rows (:meth:`Table.nulls`). Every set then combines its keys'
        codes and reduces each aggregate by them.
        """
        singles = query.as_single_queries()
        table = self.catalog.get(query.table)
        self.stats.count_scan(table.num_rows)
        table, rows = self._select_rows(table, query.predicate)
        n_rows = table.num_rows if rows is None else len(rows)

        def cut(array: np.ndarray) -> np.ndarray:
            return array if rows is None else array[rows]

        measures = {a.column for a in query.aggregates if a.column is not None}
        measure_arrays = {name: cut(table.column(name)) for name in measures}
        nulls = {name: _cut_nulls(table.nulls(name), rows) for name in measures}
        encoded: dict[tuple[bool, str], tuple[np.ndarray, np.ndarray]] = {}

        def encode(key: GroupingKey) -> tuple[np.ndarray, np.ndarray]:
            """``(codes, uniques)`` of one grouping key over the kept rows."""
            slot = (isinstance(key, FlagColumn), grouping_key_name(key))
            if slot not in encoded:
                if isinstance(key, FlagColumn):
                    flags = cut(key.predicate.evaluate(table)).astype(np.int64)
                    encoded[slot] = compact_codes(flags, _FLAG_UNIQUES)
                else:
                    codes, uniques = table.codes(key)
                    if rows is not None:
                        codes, uniques = compact_codes(codes[rows], uniques)
                    encoded[slot] = (codes, uniques)
            return encoded[slot]

        def raw(key: GroupingKey, codes: np.ndarray, uniques: np.ndarray) -> np.ndarray:
            """A key's value on every kept row (several keys name each group
            by its first row's values)."""
            if isinstance(key, FlagColumn):
                return uniques[codes]
            return cut(table.column(key))

        results: list[Table] = []
        for single in singles:
            keys = [encode(key) for key in single.group_by]
            arrays = (
                [raw(key, *pair) for key, pair in zip(single.group_by, keys)]
                if len(keys) > 1
                else []
            )
            factorization = combine_codes(keys, arrays, list(single.key_names), n_rows)
            arrays = dict(factorization.keys)
            arrays.update(
                aggregate_by_codes(
                    factorization, measure_arrays, query.aggregates, nulls
                )
            )
            name = "_".join(single.key_names) or "all"
            schema = aggregate_result_schema(table.schema, single)
            results.append(Table(f"{table.name}_by_{name}", schema, arrays))
        return results

    @staticmethod
    def _select_rows(
        table: Table, predicate: "Expression | None"
    ) -> "tuple[Table, np.ndarray | None]":
        """The rows a WHERE clause keeps: a leading row partition as a
        strided view of every column (nothing is copied), the rest as the
        positions it holds at in that view (None: every row)."""
        partition, predicate = split_partition(predicate)
        if partition is not None:
            table = table.take(slice(partition.index, None, partition.of))
        if predicate is None:
            return table, None
        return table, np.flatnonzero(predicate.evaluate(table))


def _cut_nulls(
    mask: "np.ndarray | None", rows: "np.ndarray | None"
) -> "np.ndarray | None":
    """A measure's NULL rows among the kept ``rows``; None when there are
    none, as :meth:`Table.nulls` reports a column without NULLs."""
    if mask is None or rows is None:
        return mask
    mask = mask[rows]
    return mask if mask.any() else None
