"""Aggregate functions of the memory engine's group-by.

Every aggregate here is defined in terms of per-group partial states (sum,
count, min, max, sum of squares):

* ``compute_partials(values, codes, n_groups)`` — vectorized per-group state,
* ``finalize(partials)`` — produce the user-visible value.

Merging the results of disjoint row sets — the flag partitions of SeeDB's
combined target/comparison query (§3.3), or the rounds of a phased run —
is the optimizer's job: :func:`repro.optimizer.combine.merge_partials`
over an aggregate's mergeable decomposition.

Float inputs may contain NaN, which is treated like SQL NULL: excluded from
counts, sums, and extrema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.util.errors import QueryError

Partials = dict[str, np.ndarray]


def _valid_mask(values: np.ndarray) -> np.ndarray | None:
    """Mask of non-NaN entries, or None when the dtype cannot hold NaN."""
    if values.dtype.kind == "f":
        return ~np.isnan(values)
    return None


def _grouped_sum(
    values: np.ndarray, codes: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group (sum, valid-count), honouring NaN-as-NULL."""
    mask = _valid_mask(values)
    if mask is None:
        sums = np.bincount(codes, weights=values.astype(np.float64), minlength=n_groups)
        counts = np.bincount(codes, minlength=n_groups).astype(np.float64)
    else:
        sums = np.bincount(
            codes[mask], weights=values[mask].astype(np.float64), minlength=n_groups
        )
        counts = np.bincount(codes[mask], minlength=n_groups).astype(np.float64)
    return sums, counts


class AggregateFunction:
    """Base class; subclasses define one SQL-style aggregate."""

    name: str = ""
    requires_column = True

    def compute_partials(
        self, values: np.ndarray | None, codes: np.ndarray, n_groups: int
    ) -> Partials:
        raise NotImplementedError

    def finalize(self, partials: Partials) -> np.ndarray:
        raise NotImplementedError


class CountFunction(AggregateFunction):
    """``COUNT(*)`` — row count per group (NaN rows still count)."""

    name = "count"
    requires_column = False

    def compute_partials(self, values, codes, n_groups):
        return {"count": np.bincount(codes, minlength=n_groups).astype(np.float64)}

    def finalize(self, partials):
        return partials["count"]


class SumFunction(AggregateFunction):
    """``SUM(m)`` — 0 for empty groups (more useful than SQL's NULL here,
    because view distributions treat an absent group as zero mass)."""

    name = "sum"

    def compute_partials(self, values, codes, n_groups):
        sums, counts = _grouped_sum(values, codes, n_groups)
        return {"sum": sums, "count": counts}

    def finalize(self, partials):
        return partials["sum"]


class AvgFunction(AggregateFunction):
    """``AVG(m)`` — NaN for groups with no valid values."""

    name = "avg"

    def compute_partials(self, values, codes, n_groups):
        sums, counts = _grouped_sum(values, codes, n_groups)
        return {"sum": sums, "count": counts}

    def finalize(self, partials):
        with np.errstate(invalid="ignore", divide="ignore"):
            result = partials["sum"] / partials["count"]
        return np.where(partials["count"] > 0, result, np.nan)


class _ExtremumFunction(AggregateFunction):
    """Shared machinery for MIN/MAX via ``ufunc.at`` scatter reduction."""

    _init_value: float
    _ufunc: np.ufunc

    def compute_partials(self, values, codes, n_groups):
        out = np.full(n_groups, self._init_value, dtype=np.float64)
        mask = _valid_mask(values)
        if mask is None:
            self._ufunc.at(out, codes, values.astype(np.float64))
            counts = np.bincount(codes, minlength=n_groups).astype(np.float64)
        else:
            self._ufunc.at(out, codes[mask], values[mask].astype(np.float64))
            counts = np.bincount(codes[mask], minlength=n_groups).astype(np.float64)
        return {"extreme": out, "count": counts}

    def finalize(self, partials):
        return np.where(partials["count"] > 0, partials["extreme"], np.nan)


class MinFunction(_ExtremumFunction):
    """``MIN(m)``."""

    name = "min"
    _init_value = np.inf
    _ufunc = np.minimum


class MaxFunction(_ExtremumFunction):
    """``MAX(m)``."""

    name = "max"
    _init_value = -np.inf
    _ufunc = np.maximum


class VarFunction(AggregateFunction):
    """Population variance via the (sum, sum of squares, count) sketch."""

    name = "var"

    def compute_partials(self, values, codes, n_groups):
        mask = _valid_mask(values)
        as_float = values.astype(np.float64)
        if mask is None:
            sums = np.bincount(codes, weights=as_float, minlength=n_groups)
            sumsq = np.bincount(codes, weights=as_float**2, minlength=n_groups)
            counts = np.bincount(codes, minlength=n_groups).astype(np.float64)
        else:
            sums = np.bincount(codes[mask], weights=as_float[mask], minlength=n_groups)
            sumsq = np.bincount(
                codes[mask], weights=as_float[mask] ** 2, minlength=n_groups
            )
            counts = np.bincount(codes[mask], minlength=n_groups).astype(np.float64)
        return {"sum": sums, "sumsq": sumsq, "count": counts}

    def finalize(self, partials):
        counts = partials["count"]
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = partials["sum"] / counts
            variance = partials["sumsq"] / counts - mean**2
        # Clamp tiny negative values caused by floating-point cancellation.
        variance = np.maximum(variance, 0.0)
        return np.where(counts > 0, variance, np.nan)


class StdFunction(VarFunction):
    """Population standard deviation (sqrt of :class:`VarFunction`)."""

    name = "std"

    def finalize(self, partials):
        return np.sqrt(super().finalize(partials))


class CountValidFunction(AggregateFunction):
    """``COUNT(m)`` — count of non-NULL (non-NaN) values of a column.

    Auxiliary aggregate used by the optimizer when decomposing AVG into
    mergeable parts (avg = sum / countv).
    """

    name = "countv"

    def compute_partials(self, values, codes, n_groups):
        _, counts = _grouped_sum(values, codes, n_groups)
        return {"count": counts}

    def finalize(self, partials):
        return partials["count"]


class SumSqFunction(AggregateFunction):
    """``SUM(m*m)`` — auxiliary aggregate for decomposed VAR/STD."""

    name = "sumsq"

    def compute_partials(self, values, codes, n_groups):
        mask = _valid_mask(values)
        as_float = values.astype(np.float64)
        if mask is None:
            sums = np.bincount(codes, weights=as_float**2, minlength=n_groups)
        else:
            sums = np.bincount(
                codes[mask], weights=as_float[mask] ** 2, minlength=n_groups
            )
        return {"sumsq": sums}

    def finalize(self, partials):
        return partials["sumsq"]


AGGREGATE_FUNCTIONS: Mapping[str, AggregateFunction] = {
    f.name: f
    for f in (
        CountFunction(),
        SumFunction(),
        AvgFunction(),
        MinFunction(),
        MaxFunction(),
        VarFunction(),
        StdFunction(),
        CountValidFunction(),
        SumSqFunction(),
    )
}


@dataclass(frozen=True)
class Aggregate:
    """One ``f(m)`` item in a SELECT list.

    ``column`` is None only for ``count`` (i.e. COUNT(*)). ``alias`` names
    the output column; it defaults to ``f(m)`` / ``count(*)``.
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
        function = AGGREGATE_FUNCTIONS[self.func]
        if function.requires_column and self.column is None:
            raise QueryError(f"aggregate {self.func!r} requires a column")
        if not self.alias:
            default_alias = (
                f"{self.func}({self.column})" if self.column else f"{self.func}(*)"
            )
            object.__setattr__(self, "alias", default_alias)

    @property
    def function(self) -> AggregateFunction:
        """The implementing :class:`AggregateFunction`."""
        return AGGREGATE_FUNCTIONS[self.func]

    def __str__(self) -> str:
        return self.alias
