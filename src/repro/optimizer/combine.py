"""Aggregate decomposition for shared execution.

When the optimizer folds a view's target and comparison queries into one
``GROUP BY (flag, a)`` query, the comparison view (over *all* rows) must be
recovered by merging the flag=0 and flag=1 partitions. Distributive
aggregates (SUM, COUNT, MIN, MAX) merge directly; algebraic ones (AVG,
VAR, STD) must be decomposed into distributive *auxiliary* aggregates and
reconstructed afterwards — ``avg = sum / countv``,
``var = sumsq/countv - (sum/countv)²``. The same decomposition powers the
rollup strategy for combining group-bys, where per-dimension views are
marginalized out of a multi-attribute result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.db.aggregates import Aggregate
from repro.util.errors import QueryError

#: How two partitions' values of an auxiliary aggregate combine, and the
#: neutral fill used when a group is absent from one partition.
_MERGE_OPS: dict[str, tuple[Callable, float]] = {
    "sum": (np.add, 0.0),
    "count": (np.add, 0.0),
    "countv": (np.add, 0.0),
    "sumsq": (np.add, 0.0),
    "min": (np.fmin, np.nan),  # fmin/fmax ignore NaN -> absent group is neutral
    "max": (np.fmax, np.nan),
}


@dataclass(frozen=True)
class MergeSpec:
    """How one user-facing aggregate executes under shared plans.

    ``aux`` are the distributive aggregates actually placed in the query;
    ``reconstruct`` maps their per-group arrays back to the user-facing
    value.
    """

    aux: tuple[Aggregate, ...]
    reconstruct: Callable[[Mapping[str, np.ndarray]], np.ndarray]


def merge_spec(aggregate: Aggregate) -> MergeSpec:
    """The :class:`MergeSpec` for any supported aggregate."""
    func = aggregate.func
    column = aggregate.column
    if func in ("sum", "count", "countv", "sumsq", "min", "max"):
        passthrough = Aggregate(func, column)
        return MergeSpec(
            aux=(passthrough,),
            reconstruct=lambda values, alias=passthrough.alias: values[alias],
        )
    if func == "avg":
        total = Aggregate("sum", column)
        valid = Aggregate("countv", column)
        return MergeSpec(
            aux=(total, valid),
            reconstruct=lambda values, s=total.alias, c=valid.alias: _safe_divide(
                values[s], values[c]
            ),
        )
    if func in ("var", "std"):
        total = Aggregate("sum", column)
        squares = Aggregate("sumsq", column)
        valid = Aggregate("countv", column)

        def reconstruct(values, s=total.alias, q=squares.alias, c=valid.alias):
            counts = values[c]
            mean = _safe_divide(values[s], counts)
            variance = np.maximum(_safe_divide(values[q], counts) - mean**2, 0.0)
            if func == "std":
                return np.sqrt(variance)
            return variance

        return MergeSpec(aux=(total, squares, valid), reconstruct=reconstruct)
    raise QueryError(f"no merge decomposition for aggregate {func!r}")


def merge_fill_value(aux: Aggregate) -> float:
    """Neutral value for a group absent from one partition."""
    try:
        return _MERGE_OPS[aux.func][1]
    except KeyError:
        raise QueryError(f"aggregate {aux.func!r} is not mergeable") from None


def merge_aux_arrays(
    aux: Aggregate, values_a: np.ndarray, values_b: np.ndarray
) -> np.ndarray:
    """Combine two aligned partitions' values of one auxiliary aggregate."""
    try:
        operation, _fill = _MERGE_OPS[aux.func]
    except KeyError:
        raise QueryError(f"aggregate {aux.func!r} is not mergeable") from None
    return operation(values_a, values_b)


def dedup_aggregates(aggregates: "list[Aggregate] | tuple[Aggregate, ...]") -> tuple[Aggregate, ...]:
    """Drop duplicate aggregates (same alias), preserving first-seen order.

    Views like ``avg(price)`` and ``var(price)`` share the auxiliary
    ``sum(price)``/``countv(price)``; a combined query computes each once.
    """
    seen: set[str] = set()
    unique: list[Aggregate] = []
    for aggregate in aggregates:
        if aggregate.alias not in seen:
            seen.add(aggregate.alias)
            unique.append(aggregate)
    return tuple(unique)


def aux_aggregates(views) -> tuple[Aggregate, ...]:
    """Deduped auxiliary (mergeable) aggregates that ``views`` decompose into."""
    return dedup_aggregates(
        [aux for view in views for aux in merge_spec(view.aggregate).aux]
    )


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        result = numerator / denominator
    return np.where(denominator > 0, result, np.nan)
