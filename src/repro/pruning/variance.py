"""Variance-based pruning (§3.3).

"Dimension attributes with low variance are likely to produce views having
low utility (e.g. consider the extreme case where an attribute only takes a
single value)." For categorical dimensions the meaningful notion of spread
is the *entropy* of the value distribution (share variance is misleading:
a constant column has high share variance); for numeric dimensions plain
variance applies as well. Both are available from column stats, so pruning
costs no data scan. A multi-attribute view's key set is read as one
categorical attribute (:meth:`~repro.metadata.collector.TableMetadata.key_stats`).
"""

from __future__ import annotations

from repro.model.view import ViewSpec
from repro.metadata.collector import TableMetadata
from repro.pruning.base import PruningRule
from repro.util.errors import PruningError


class VariancePruner(PruningRule):
    """Prunes views whose grouping attribute has (near-)zero spread."""

    name = "variance"

    def __init__(
        self,
        min_entropy_bits: float = 0.05,
        min_numeric_variance: float = 0.0,
    ):
        if min_entropy_bits < 0:
            raise PruningError("min_entropy_bits must be >= 0")
        if min_numeric_variance < 0:
            raise PruningError("min_numeric_variance must be >= 0")
        self.min_entropy_bits = min_entropy_bits
        self.min_numeric_variance = min_numeric_variance

    def reason_to_prune(self, view: ViewSpec, metadata: TableMetadata) -> str | None:
        stats = metadata.key_stats(view.keys)
        if stats.is_constant:
            return f"dimension {view.dimension!r} is constant"
        if stats.entropy < self.min_entropy_bits:
            return (
                f"dimension {view.dimension!r} entropy "
                f"{stats.entropy:.4f} < {self.min_entropy_bits}"
            )
        if (
            stats.dtype.is_numeric
            and self.min_numeric_variance > 0
            and stats.variance < self.min_numeric_variance
        ):
            return (
                f"dimension {view.dimension!r} variance "
                f"{stats.variance:.4g} < {self.min_numeric_variance}"
            )
        return None


class CardinalityPruner(PruningRule):
    """Prunes views whose dimension has too few or too many groups.

    An extension the SeeDB prototype applied in practice: a one-group view
    carries no trend, and a view with thousands of bars is not a usable
    visualization (and its query is the most expensive of all). Bounds are
    configurable; ``max_groups=None`` disables the upper bound.
    """

    name = "cardinality"

    def __init__(self, min_groups: int = 2, max_groups: "int | None" = 250):
        if min_groups < 1:
            raise PruningError("min_groups must be >= 1")
        if max_groups is not None and max_groups < min_groups:
            raise PruningError("max_groups must be >= min_groups")
        self.min_groups = min_groups
        self.max_groups = max_groups

    def reason_to_prune(self, view: ViewSpec, metadata: TableMetadata) -> str | None:
        n_distinct = metadata.key_stats(view.keys).n_distinct
        if n_distinct < self.min_groups:
            return (
                f"dimension {view.dimension!r} has {n_distinct} group(s) "
                f"< {self.min_groups}"
            )
        if self.max_groups is not None and n_distinct > self.max_groups:
            return (
                f"dimension {view.dimension!r} has {n_distinct} groups "
                f"> {self.max_groups} (unvisualizable)"
            )
        return None
