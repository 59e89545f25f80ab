"""Metadata collection (Figure 4: "Metadata Collector").

Gathers the information the Query Generator prunes with (§3.1): table
sizes, column types, per-column data distributions (distinct counts,
variance, entropy, top values), pairwise dimension associations, and table
access patterns from SeeDB-specific tracking.
"""

from repro.metadata.stats import (
    ColumnStats,
    TableStats,
    cramers_v,
    pearson_correlation,
)
from repro.metadata.collector import MetadataCollector, TableMetadata
from repro.metadata.access_log import AccessLog

__all__ = [
    "ColumnStats",
    "TableStats",
    "cramers_v",
    "pearson_correlation",
    "MetadataCollector",
    "TableMetadata",
    "AccessLog",
]
