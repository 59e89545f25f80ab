"""Shared-scan execution of multiple group-by sets.

The heart of SeeDB's "Combine Multiple Group-bys" optimization on the
in-memory backend: the filtered table is scanned once, every referenced key
column's codes are cut from the base table's dictionary encoding, and each
grouping set reuses them. With ``k`` sets over ``n`` rows this does one
pass of filtering plus one code compaction per *distinct column* instead
of ``k`` full passes.
"""

from __future__ import annotations

import numpy as np

from repro.db.aggregates import Aggregate
from repro.db.groupby import (
    Factorization,
    aggregate_by_codes,
    combine_codes,
    compact_codes,
    finalize_aggregates,
)
from repro.db.query import FlagColumn, GroupingKey, grouping_key_name
from repro.db.table import Table
from repro.util.errors import QueryError


#: The dictionary of a flag column: its codes are the 0/1 flag itself.
_FLAG_UNIQUES = np.array([0, 1], dtype=np.int64)


class ColumnFactorizationCache:
    """``(codes, uniques)`` per grouping key of one (filtered) table.

    A base column's come from the table's dictionary encoding
    (:meth:`Table.codes`: cut from the base table's, no sort); a flag's
    are the 0/1 flag itself, compacted the same way.
    """

    def __init__(self, table: Table, flag_arrays: dict[str, np.ndarray]):
        self._table = table
        self._flag_arrays = flag_arrays
        self._flags: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def key_array(self, key: GroupingKey) -> np.ndarray:
        """Raw values of a grouping key (base column or materialized flag)."""
        name = grouping_key_name(key)
        if isinstance(key, FlagColumn):
            try:
                return self._flag_arrays[name]
            except KeyError:
                raise QueryError(
                    f"flag column {name!r} was not materialized before grouping"
                ) from None
        return self._table.column(name)

    def factorized(self, key: GroupingKey) -> tuple[np.ndarray, np.ndarray]:
        """The dictionary encoding of one grouping key."""
        name = grouping_key_name(key)
        if not isinstance(key, FlagColumn):
            return self._table.codes(name)
        if name not in self._flags:
            self._flags[name] = compact_codes(self.key_array(key), _FLAG_UNIQUES)
        return self._flags[name]

    def factorize_set(self, keys: tuple[GroupingKey, ...]) -> Factorization:
        """Combined factorization for a grouping set, reusing column codes."""
        n_rows = self._table.num_rows
        if not keys:
            return Factorization(
                codes=np.zeros(n_rows, dtype=np.int64),
                n_groups=1 if n_rows else 0,
                keys={},
            )
        if len(keys) == 1:
            codes, uniques = self.factorized(keys[0])
            return Factorization(
                codes=codes,
                n_groups=len(uniques),
                keys={grouping_key_name(keys[0]): uniques},
            )
        return combine_codes(
            [self.factorized(key) for key in keys],
            [self.key_array(key) for key in keys],
            [grouping_key_name(key) for key in keys],
        )


def execute_sets_shared_scan(
    table: Table,
    sets: tuple[tuple[GroupingKey, ...], ...],
    aggregates: tuple[Aggregate, ...],
    flag_arrays: dict[str, np.ndarray],
    build_result,
) -> list[Table]:
    """Execute every grouping set against ``table`` with shared work.

    ``build_result(factorization, finalized, set_keys)`` constructs the
    result table — injected by the engine so schema construction (and its
    dependency on the base schema) stays in one place.
    """
    cache = ColumnFactorizationCache(table, flag_arrays)
    results: list[Table] = []
    for key_set in sets:
        factorization = cache.factorize_set(key_set)
        measure_arrays = {
            aggregate.column: table.column(aggregate.column)
            for aggregate in aggregates
            if aggregate.column is not None
        }
        partials = aggregate_by_codes(factorization, measure_arrays, aggregates)
        finalized = finalize_aggregates(partials, aggregates)
        results.append(build_result(factorization, finalized, key_set))
    return results
