"""The Metadata Collector module (Figure 4).

"First, the Metadata Collector module queries metadata tables ... for
information such as table sizes, column types, data distribution, and table
access patterns" (§3.1). This module computes and caches exactly that:
:class:`TableMetadata` bundles table stats, the pairwise dimension
association matrix, and the access log, and is handed to the Query
Generator (candidate enumeration + pruning).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.db.table import Table
from repro.metadata.access_log import AccessLog
from repro.metadata.stats import (
    TableStats,
    compute_table_stats,
    cramers_v_codes,
    pearson_correlation,
)
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class TableMetadata:
    """Everything the pruners need to know about one table."""

    stats: TableStats
    #: Pairwise association between dimension columns, in [0, 1];
    #: keys are frozensets of two column names.
    dimension_associations: dict[frozenset, float]
    access_log: AccessLog

    def association(self, column_a: str, column_b: str) -> float:
        """Association between two dimension columns (0 if not computed)."""
        return self.dimension_associations.get(frozenset((column_a, column_b)), 0.0)


class MetadataCollector:
    """Computes and caches :class:`TableMetadata` per table.

    ``association_sample_rows`` bounds the cost of the pairwise dimension
    association matrix on large tables: associations are estimated on a
    uniform row sample (metadata drives *pruning heuristics*, so sampled
    estimates are exactly fit for purpose).
    """

    def __init__(
        self,
        access_log: AccessLog | None = None,
        association_sample_rows: int = 50_000,
        seed: int = 0,
    ):
        self.access_log = access_log if access_log is not None else AccessLog()
        self.association_sample_rows = association_sample_rows
        self._seed = seed
        self._cache: dict[str, TableMetadata] = {}
        # Collectors are shared across a service's concurrent sessions;
        # the lock keeps the per-name cache consistent and collapses
        # duplicate concurrent computations of the same table's metadata.
        self._lock = threading.RLock()

    def collect(self, table: Table, refresh: bool = False) -> TableMetadata:
        """Return (cached) metadata for ``table``."""
        with self._lock:
            if table.name in self._cache and not refresh:
                return self._cache[table.name]
            stats = compute_table_stats(table)
            associations = self._dimension_associations(table)
            metadata = TableMetadata(
                stats=stats,
                dimension_associations=associations,
                access_log=self.access_log,
            )
            self._cache[table.name] = metadata
            return metadata

    def invalidate(self, table_name: str) -> None:
        """Drop cached metadata (call after data changes)."""
        with self._lock:
            self._cache.pop(table_name, None)

    def _dimension_associations(self, table: Table) -> dict[frozenset, float]:
        """Pairwise association of dimension columns on a row sample."""
        dimensions = table.schema.dimensions
        if len(dimensions) < 2:
            return {}
        sampled = self._sample(table)
        associations: dict[frozenset, float] = {}
        for i, spec_a in enumerate(dimensions):
            for spec_b in dimensions[i + 1 :]:
                if spec_a.dtype.is_numeric and spec_b.dtype.is_numeric:
                    score = pearson_correlation(
                        sampled.column(spec_a.name), sampled.column(spec_b.name)
                    )
                else:
                    score = cramers_v_codes(
                        sampled.codes(spec_a.name), sampled.codes(spec_b.name)
                    )
                associations[frozenset((spec_a.name, spec_b.name))] = score
        return associations

    def _sample(self, table: Table) -> Table:
        if table.num_rows <= self.association_sample_rows:
            return table
        rng = derive_rng(self._seed)
        indices = rng.choice(
            table.num_rows, size=self.association_sample_rows, replace=False
        )
        return table.take(np.sort(indices))
