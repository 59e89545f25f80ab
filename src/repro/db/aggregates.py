"""Aggregate functions of the memory engine's group-by.

Each aggregate is one reducer: a read of one measure's :class:`Grouped`
rows, which a step derives once for all of that measure's aggregates
(§3.3's "combine multiple aggregates"), to one value per group. Merging
the results of disjoint row sets — the flag partitions of SeeDB's combined
target/comparison query, or the rounds of a phased run — is the fold of
:class:`repro.optimizer.combine.GroupState` over an aggregate's mergeable
decomposition.

Float inputs may contain NaN, which is treated like SQL NULL: excluded from
counts, sums, and extrema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from repro.util.errors import QueryError


def nan_mask(values: np.ndarray) -> "np.ndarray | None":
    """The NULL (NaN) rows of ``values``, or None when it has none."""
    if values.dtype.kind != "f":
        return None
    mask = np.isnan(values)
    return mask if mask.any() else None


class Grouped:
    """One measure's non-NULL rows under a step's dense group codes.

    ``counts`` is each group's non-NULL row count (float64); ``sums`` and
    ``squares`` are one weighted ``bincount`` each, in row order, taken on
    first use. A measure without NULLs shares the step's codes and
    ``COUNT(*)`` (then its ``COUNT(m)``); ``values`` is None for
    ``COUNT(*)``'s own view of the rows.
    """

    def __init__(self, codes: np.ndarray, n_groups: int, values=None, counts=None) -> None:
        self.codes, self.n_groups, self.values = codes, n_groups, values
        if counts is None:
            counts = np.bincount(codes, minlength=n_groups).astype(np.float64)
        self.counts = counts

    def measure(self, values: np.ndarray, nulls: "np.ndarray | None") -> "Grouped":
        """``values``' view of these rows, less its ``nulls`` (None: none)."""
        if values.dtype.kind not in "biuf":
            values = values.astype(np.float64)
        if nulls is None:
            return Grouped(self.codes, self.n_groups, values, self.counts)
        keep = ~nulls
        return Grouped(self.codes[keep], self.n_groups, values[keep])

    @cached_property
    def sums(self) -> np.ndarray:
        return np.bincount(self.codes, weights=self.values, minlength=self.n_groups)

    @cached_property
    def squares(self) -> np.ndarray:
        squares = np.square(self.values, dtype=np.float64)
        return np.bincount(self.codes, weights=squares, minlength=self.n_groups)

    def where_present(self, result: np.ndarray) -> np.ndarray:
        """``result``, NaN for the groups with no non-NULL value."""
        return np.where(self.counts > 0, result, np.nan)


def _avg(grouped: Grouped) -> np.ndarray:
    """``AVG(m)`` — NaN for groups with no valid values."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return grouped.where_present(grouped.sums / grouped.counts)


def _extremum(ufunc: np.ufunc, init: float) -> Callable[[Grouped], np.ndarray]:
    """``MIN``/``MAX`` via ``ufunc.at`` scatter reduction; NaN when empty."""

    def reduce(grouped: Grouped) -> np.ndarray:
        out = np.full(grouped.n_groups, init, dtype=np.float64)
        ufunc.at(out, grouped.codes, grouped.values)
        return grouped.where_present(out)

    return reduce


def _var(grouped: Grouped) -> np.ndarray:
    """Population variance via the (sum, sum of squares, count) sketch."""
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = grouped.sums / grouped.counts
        variance = grouped.squares / grouped.counts - mean**2
    # Clamp tiny negative values caused by floating-point cancellation.
    return grouped.where_present(np.maximum(variance, 0.0))


#: ``reduce(grouped)`` — per-group values of one aggregate. COUNT(m), the
#: optimizer's auxiliary for decomposed AVG/VAR/STD, is ``countv``.
AGGREGATE_FUNCTIONS: Mapping[str, Callable[[Grouped], np.ndarray]] = {
    "count": lambda grouped: grouped.counts,
    # SUM is 0 for empty groups (more useful than SQL's NULL here, because
    # view distributions treat an absent group as zero mass).
    "sum": lambda grouped: grouped.sums,
    "avg": _avg,
    "min": _extremum(np.minimum, np.inf),
    "max": _extremum(np.maximum, -np.inf),
    "var": _var,
    "std": lambda grouped: np.sqrt(_var(grouped)),
    "countv": lambda grouped: grouped.counts,
    "sumsq": lambda grouped: grouped.squares,
}


@dataclass(frozen=True)
class Aggregate:
    """One ``f(m)`` item in a SELECT list.

    ``column`` is None exactly for ``count`` (i.e. COUNT(*); COUNT(m) is
    ``countv``). ``alias`` names the output column; it defaults to
    ``f(m)`` / ``count(*)``.
    """

    func: str
    column: str | None = None
    alias: str = field(default="")

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"unknown aggregate {self.func!r}; "
                f"available: {sorted(AGGREGATE_FUNCTIONS)}"
            )
        if self.func == "count" and self.column is not None:
            raise QueryError(
                f"'count' takes no column (COUNT(*)); COUNT({self.column}) "
                "is 'countv'"
            )
        if self.func != "count" and self.column is None:
            raise QueryError(f"aggregate {self.func!r} requires a column")
        if not self.alias:
            default_alias = (
                f"{self.func}({self.column})" if self.column else f"{self.func}(*)"
            )
            object.__setattr__(self, "alias", default_alias)

    def __str__(self) -> str:
        return self.alias
