"""The Metadata Collector module (Figure 4).

"First, the Metadata Collector module queries metadata tables ... for
information such as table sizes, column types, data distribution, and table
access patterns" (§3.1). This module computes exactly that:
:class:`TableMetadata` bundles the dimension statistics, the pairwise
dimension association matrix, and the access log, and is handed to the
Query Generator (candidate enumeration + pruning) and the cost-based
planner. The engine cache (:meth:`repro.engine.cache.SessionCache.metadata`)
holds the result once per ``(table, data_version)``; the collector itself
caches nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.table import Table
from repro.metadata.access_log import AccessLog
from repro.metadata.stats import (
    ColumnStats,
    TableStats,
    compute_key_set_stats,
    compute_table_stats,
    cramers_v_codes,
    pearson_correlation,
)
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class TableMetadata:
    """Everything the pruners and the planner need to know about one table."""

    stats: TableStats
    #: Pairwise association between dimension columns, in [0, 1];
    #: keys are frozensets of two column names.
    dimension_associations: dict[frozenset, float]
    access_log: AccessLog
    #: The table the statistics describe: key sets' joint statistics are
    #: read from its codes.
    table: Table = field(repr=False, compare=False)
    #: Key set -> its joint statistics, computed on first use.
    _key_sets: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def association(self, column_a: str, column_b: str) -> float:
        """Association between two dimension columns (0 if not computed)."""
        return self.dimension_associations.get(frozenset((column_a, column_b)), 0.0)

    def key_stats(self, keys: tuple[str, ...]) -> ColumnStats:
        """Statistics of a view's key set: one key's column statistics, or
        several keys' joint ones (:func:`compute_key_set_stats`), computed
        once and kept with this entry."""
        if len(keys) == 1:
            return self.stats[keys[0]]
        stats = self._key_sets.get(keys)
        if stats is None:
            stats = self._key_sets.setdefault(
                keys, compute_key_set_stats(self.table, keys)
            )
        return stats


class MetadataCollector:
    """Computes :class:`TableMetadata` for a table.

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

    def collect(self, table: Table) -> TableMetadata:
        """Compute the metadata of ``table``: dimension statistics and
        pairwise dimension associations, bundled with the access log."""
        return TableMetadata(
            stats=compute_table_stats(table),
            dimension_associations=self._dimension_associations(table),
            access_log=self.access_log,
            table=table,
        )

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
