"""Aggregate decomposition and the one merge of partial aggregates.

When the optimizer folds a view's target and comparison queries into one
``GROUP BY (flag, a)`` query, the comparison view (over *all* rows) must be
recovered by merging the flag=0 and flag=1 partitions. Distributive
aggregates (SUM, COUNT, MIN, MAX) merge directly; algebraic ones (AVG,
VAR, STD) must be decomposed into distributive *auxiliary* aggregates and
reconstructed afterwards — ``avg = sum / countv``,
``var = sumsq/countv - (sum/countv)²``. The same decomposition powers the
rollup strategy for combining group-bys, where per-dimension views are
marginalized out of a multi-attribute result.

Results travel as :class:`Partial`\\ s, and :func:`merge_partials` is the
one merge of them: it recovers the ``table`` comparison from the two flag
partitions and folds every round of a phased run, NaN (an absent key, or
SQL's NULL ``SUM``) being its identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from repro.db.aggregates import Aggregate
from repro.metrics.normalize import align_batch
from repro.util.errors import QueryError


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` with NaN as the identity: NaN only where both are NaN."""
    return np.where(np.isnan(a), b, np.where(np.isnan(b), a, a + b))


#: How two partials' values of an auxiliary aggregate combine.
_MERGE_OPS: dict[str, Callable] = {
    "sum": _add,
    "count": _add,
    "countv": _add,
    "sumsq": _add,
    "min": np.fmin,
    "max": np.fmax,
}


class Partial(NamedTuple):
    """One side of a view group's result: canonical ``keys`` sorted by
    :func:`~repro.metrics.normalize.group_sort_key`, and a float64
    ``(n_aggregates, n_keys)`` matrix, one row per aggregate carried."""

    keys: list
    values: np.ndarray


def merge_partials(
    a: Partial, b: Partial, aggregates: "tuple[Aggregate, ...]"
) -> Partial:
    """Merge two partials of disjoint row sets on their key union, an
    absent key reading NaN: each aggregate's row merges with its operation
    — additive values sum, extrema take ``fmin`` / ``fmax`` — NaN being the
    identity (additive rows stay NaN only where both sides are)."""
    if a.keys == b.keys:
        keys, values_a, values_b = a.keys, a.values, b.values
    else:
        keys, values_a, values_b = align_batch(
            a.keys, a.values, b.keys, b.values, fill=np.nan
        )
    rows_by_operation: dict[Callable, list[int]] = {}
    for row, aggregate in enumerate(aggregates):
        try:
            operation = _MERGE_OPS[aggregate.func]
        except KeyError:
            raise QueryError(f"aggregate {aggregate.func!r} is not mergeable") from None
        rows_by_operation.setdefault(operation, []).append(row)
    merged = np.empty_like(values_a)
    for operation, rows in rows_by_operation.items():
        merged[rows] = operation(values_a[rows], values_b[rows])
    return Partial(keys, merged)


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
    empty = np.full(np.shape(numerator), np.nan)
    return np.divide(numerator, denominator, out=empty, where=denominator > 0)
