"""Aggregate functions of the memory engine's group-by.

Each aggregate is one reducer, ``reduce(values, codes, n_groups)``: a
vectorized pass from a measure column and dense group codes to one float64
value per group. Merging the results of disjoint row sets — the flag
partitions of SeeDB's combined target/comparison query (§3.3), or the
rounds of a phased run — is the optimizer's job: the fold of
:class:`repro.optimizer.combine.GroupState` over an aggregate's mergeable
decomposition.

Float inputs may contain NaN, which is treated like SQL NULL: excluded from
counts, sums, and extrema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.util.errors import QueryError

#: ``reduce(values, codes, n_groups)`` — per-group values of one aggregate.
Reducer = Callable[["np.ndarray | None", np.ndarray, int], np.ndarray]


def _valid(values: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values as float64, codes)`` of the non-NULL (non-NaN) entries."""
    if values.dtype.kind == "f":
        mask = ~np.isnan(values)
        return values[mask].astype(np.float64), codes[mask]
    return values.astype(np.float64), codes


def _count(values, codes, n_groups):
    """``COUNT(*)`` — row count per group (NaN rows still count)."""
    return np.bincount(codes, minlength=n_groups).astype(np.float64)


def _countv(values, codes, n_groups):
    """``COUNT(m)`` — count of non-NULL values; the optimizer's auxiliary
    for decomposed AVG/VAR/STD (avg = sum / countv)."""
    if values.dtype.kind == "f":
        codes = codes[~np.isnan(values)]
    return _count(None, codes, n_groups)


def _sum(values, codes, n_groups):
    """``SUM(m)`` — 0 for empty groups (more useful than SQL's NULL here,
    because view distributions treat an absent group as zero mass)."""
    values, codes = _valid(values, codes)
    return np.bincount(codes, weights=values, minlength=n_groups)


def _sumsq(values, codes, n_groups):
    """``SUM(m*m)`` — auxiliary aggregate for decomposed VAR/STD."""
    values, codes = _valid(values, codes)
    return np.bincount(codes, weights=values**2, minlength=n_groups)


def _avg(values, codes, n_groups):
    """``AVG(m)`` — NaN for groups with no valid values."""
    values, codes = _valid(values, codes)
    sums = np.bincount(codes, weights=values, minlength=n_groups)
    counts = _count(None, codes, n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = sums / counts
    return np.where(counts > 0, result, np.nan)


def _extremum(ufunc: np.ufunc, init: float) -> Reducer:
    """``MIN``/``MAX`` via ``ufunc.at`` scatter reduction; NaN when empty."""

    def reduce(values, codes, n_groups):
        values, codes = _valid(values, codes)
        out = np.full(n_groups, init, dtype=np.float64)
        ufunc.at(out, codes, values)
        return np.where(_count(None, codes, n_groups) > 0, out, np.nan)

    return reduce


def _var(values, codes, n_groups):
    """Population variance via the (sum, sum of squares, count) sketch."""
    values, codes = _valid(values, codes)
    sums = np.bincount(codes, weights=values, minlength=n_groups)
    sumsq = np.bincount(codes, weights=values**2, minlength=n_groups)
    counts = _count(None, codes, n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        variance = sumsq / counts - mean**2
    # Clamp tiny negative values caused by floating-point cancellation.
    variance = np.maximum(variance, 0.0)
    return np.where(counts > 0, variance, np.nan)


def _std(values, codes, n_groups):
    """Population standard deviation (sqrt of ``var``)."""
    return np.sqrt(_var(values, codes, n_groups))


AGGREGATE_FUNCTIONS: Mapping[str, Reducer] = {
    "count": _count,
    "sum": _sum,
    "avg": _avg,
    "min": _extremum(np.minimum, np.inf),
    "max": _extremum(np.maximum, -np.inf),
    "var": _var,
    "std": _std,
    "countv": _countv,
    "sumsq": _sumsq,
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

    def reduce(
        self, values: "np.ndarray | None", codes: np.ndarray, n_groups: int
    ) -> np.ndarray:
        """Per-group float64 values of this aggregate over ``values``."""
        reducer = AGGREGATE_FUNCTIONS[self.func]
        # np.bincount yields int64 for empty inputs; results are FLOAT.
        return np.asarray(reducer(values, codes, n_groups), dtype=np.float64)

    def __str__(self) -> str:
        return self.alias
