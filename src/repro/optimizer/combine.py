"""Aggregate decomposition and the one keyed state of a view group.

When the optimizer folds a view's target and comparison queries into one
``GROUP BY (flag, a)`` query, the comparison view (over *all* rows) must be
recovered by merging the flag=0 and flag=1 partitions. Distributive
aggregates (SUM, COUNT, MIN, MAX) merge directly; algebraic ones (AVG,
VAR, STD) must be decomposed into distributive *auxiliary* aggregates and
reconstructed afterwards — ``avg = sum / countv``,
``var = sumsq/countv - (sum/countv)²``. The same decomposition powers the
rollup strategy for combining group-bys, where per-dimension views are
summed out of a multi-attribute result, and phased execution, whose
rounds are row partitions of one run.

A view group's results all land in one :class:`GroupState`, whose
:meth:`~GroupState.fold` is the one merge: a flag result's two partitions,
a target/comparison pair, a rollup result's several rows per key and every
phased round scatter into it with each aggregate's operation from
``_MERGE_OPS``, NaN (an absent key, or SQL's NULL ``SUM``) the identity.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.db.aggregates import Aggregate
from repro.db.groupby import compact_codes
from repro.metrics.normalize import canonical_key, group_sort_key
from repro.model.view import ViewBlock
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


@dataclass(frozen=True)
class MergeSpec:
    """How one user-facing aggregate executes under shared plans.

    ``aux`` are the distributive aggregates actually placed in the query;
    ``reconstruct`` maps their per-group arrays, passed positionally in
    ``aux`` order, back to the user-facing value. It is elementwise, so one
    call rebuilds a whole stack of views of the same function.
    """

    aux: tuple[Aggregate, ...]
    reconstruct: Callable[..., np.ndarray]


def _passthrough(values: np.ndarray) -> np.ndarray:
    return values


def _variance(total: np.ndarray, squares: np.ndarray, valid: np.ndarray) -> np.ndarray:
    mean = _safe_divide(total, valid)
    return np.maximum(_safe_divide(squares, valid) - mean**2, 0.0)


def _std(total: np.ndarray, squares: np.ndarray, valid: np.ndarray) -> np.ndarray:
    return np.sqrt(_variance(total, squares, valid))


@lru_cache(maxsize=1024)
def merge_spec(aggregate: Aggregate) -> MergeSpec:
    """The :class:`MergeSpec` for any supported aggregate (immutable, so
    one is shared by every view of that aggregate)."""
    func = aggregate.func
    column = aggregate.column
    if func in _MERGE_OPS:
        return MergeSpec((Aggregate(func, column),), _passthrough)
    if func == "avg":
        return MergeSpec(
            (Aggregate("sum", column), Aggregate("countv", column)), _safe_divide
        )
    if func in ("var", "std"):
        return MergeSpec(
            (
                Aggregate("sum", column),
                Aggregate("sumsq", column),
                Aggregate("countv", column),
            ),
            _std if func == "std" else _variance,
        )
    raise QueryError(f"no merge decomposition for aggregate {func!r}")


def dedup_aggregates(aggregates) -> tuple[Aggregate, ...]:
    """Drop duplicate aggregates (same alias), preserving first-seen order.

    Views like ``avg(price)`` and ``var(price)`` share the auxiliary
    ``sum(price)``/``countv(price)``; a combined query computes each once.
    """
    return tuple({aggregate.alias: aggregate for aggregate in aggregates}.values())


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    empty = np.full(np.shape(numerator), np.nan)
    return np.divide(numerator, denominator, out=empty, where=denominator > 0)


class GroupState:
    """One view group's partial aggregates, keyed by group value.

    ``values[side, row, position]`` holds ``aggregates[row]`` of key
    ``keys[position]``; side 0 is the target, side 1 the flag=0 rest of a
    flag-combined query or else the comparison. Cells start NaN and
    ``present[side, position]`` records whether a row ever carried the key
    on that side, so an absent key reads 0.0 (no mass) in a block while a
    NULL aggregate reads NaN. Keys keep arrival order until a block sorts
    them. ``merged`` says whether the group's
    (:class:`~repro.optimizer.plan.ViewGroup`) queries carry the decomposed
    auxiliary aggregates (any plan that merges results) or the views' own.
    """

    def __init__(self, group, merged: bool):
        self.group = group
        self.aggregates = group.aux if merged else group.own
        self.keys: list = []
        self._positions: dict = {}
        self.values = np.full((2, len(self.aggregates), 0), np.nan)
        self.present = np.zeros((2, 0), dtype=bool)
        by_operation: dict = {}
        for row, aggregate in enumerate(self.aggregates):
            by_operation.setdefault(_MERGE_OPS.get(aggregate.func), []).append(row)
        #: A None operation: a view's own ``avg``, stored once per key.
        self._operations = [(op, np.array(r)) for op, r in by_operation.items()]
        self._passes = _reconstruction(group.views, self.aggregates)

    def copy(self) -> "GroupState":
        """An independent state with the same keys and partials (a cached
        comparison side is copied before a request folds its target in)."""
        clone = copy.copy(self)
        clone.keys = list(self.keys)
        clone._positions = dict(self._positions)
        clone.values = self.values.copy()
        clone.present = self.present.copy()
        return clone

    def index(self, columns) -> np.ndarray:
        """Each row's key position, given one array per key name; keys not
        seen before join the index. :func:`canonical_key` decides identity,
        once per distinct raw value — hashing, no sort."""
        if len(columns) == 1:
            rows = columns[0].tolist()
        else:
            rows = list(zip(*(column.tolist() for column in columns)))
        lookup = {raw: self._position(canonical_key(raw)) for raw in dict.fromkeys(rows)}
        n_new = len(self.keys) - self.present.shape[1]
        if n_new:
            fresh = np.full((2, len(self.aggregates), n_new), np.nan)
            self.values = np.concatenate([self.values, fresh], axis=2)
            self.present = np.concatenate(
                [self.present, np.zeros((2, n_new), dtype=bool)], axis=1
            )
        return np.fromiter(map(lookup.__getitem__, rows), dtype=np.intp, count=len(rows))

    def read(self, table) -> "tuple[np.ndarray, np.ndarray]":
        """Each row of a result ``table``: its key position and its values
        of ``aggregates``, one row per aggregate."""
        positions = self.index([table.column(name) for name in self.group.keys])
        values = np.array(
            [table.column(aggregate.alias) for aggregate in self.aggregates],
            dtype=np.float64,
        ).reshape(len(self.aggregates), table.num_rows)
        return positions, values

    def _position(self, key) -> int:
        position = self._positions.get(key)
        if position is None:
            position = self._positions[key] = len(self.keys)
            self.keys.append(key)
        return position

    def fold(self, side: int, positions: np.ndarray, values: np.ndarray) -> None:
        """Merge result rows into ``side``: row ``i`` carries ``values[:, i]``
        (one row per aggregate) for key ``positions[i]``. Rows repeating a
        key — a rollup result grouped by more dimensions than the group's —
        merge into it first, which is the marginalization; the merged rows
        then merge into the state. Both merges are each aggregate's
        operation with NaN the identity, so a key's first rows are stored
        as they are."""
        touched = positions
        if len(positions) and np.bincount(positions).max() > 1:
            inverse, touched = compact_codes(positions, np.arange(len(self.keys)))
            merged = np.empty((len(values), len(touched)))
            for operation, rows in self._mergeable():
                merged[rows] = _merge_rows(operation, values[rows], inverse, len(touched))
            values = merged
        state = self.values[side]
        if self.present[side, touched].any():
            values = self._merge(state[:, touched], values)
        state[:, touched] = values
        self.present[side, touched] = True

    def block(self, merge: bool) -> ViewBlock:
        """The group's :class:`ViewBlock`. With ``merge`` the comparison is
        both sides merged (the flag partitions cover the entire table, §2 —
        the ``table`` reference), otherwise the second side as fetched."""
        order = sorted(range(len(self.keys)), key=lambda i: group_sort_key(self.keys[i]))
        (target, second), (target_present, second_present) = (
            self.values[:, :, order],
            self.present[:, order],
        )
        if merge:
            second = self._merge(target, second)
            second_present = target_present | second_present
        return ViewBlock(
            dimension=self.group.dimension,
            specs=self.group.views,
            groups=[self.keys[i] for i in order],
            target=self._rebuild(target, target_present),
            comparison=self._rebuild(second, second_present),
        )

    def _merge(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a`` ⊕ ``b``, each aggregate's rows with its operation."""
        merged = np.empty_like(a)
        for operation, rows in self._mergeable():
            merged[rows] = operation(a[rows], b[rows])
        return merged

    def _mergeable(self):
        for operation, rows in self._operations:
            if operation is None:
                func = self.aggregates[rows[0]].func
                raise QueryError(f"aggregate {func!r} is not mergeable")
            yield operation, rows

    def _rebuild(self, values: np.ndarray, present: np.ndarray) -> np.ndarray:
        """``(n_views, n_keys)``: every view's aggregate from the rows, one
        vectorized pass per reconstruction function; absent keys read 0."""
        rebuilt = np.empty((len(self.group.views), values.shape[1]))
        for views, function, sources in self._passes:
            rebuilt[views] = function(*(values[rows] for rows in sources))
        rebuilt[:, ~present] = 0.0
        return rebuilt


@lru_cache(maxsize=1024)
def _reconstruction(views: tuple, aggregates: tuple[Aggregate, ...]) -> tuple:
    """``(view rows, function, source rows per argument)`` per function: a
    view whose own aggregate is among ``aggregates`` reads its row, any
    other is rebuilt from its decomposition's rows. Remembered, like
    :func:`merge_spec`: requests on one table rebuild the same few groups."""
    rows = {aggregate.alias: row for row, aggregate in enumerate(aggregates)}
    passes: dict = {}
    for index, view in enumerate(views):
        alias = view.aggregate.alias
        if alias in rows:
            function, sources = _passthrough, (rows[alias],)
        else:
            spec = merge_spec(view.aggregate)
            function = spec.reconstruct
            sources = tuple(rows[aux.alias] for aux in spec.aux)
        views_of, arguments = passes.setdefault(function, ([], []))
        views_of.append(index)
        arguments.append(sources)
    return tuple(
        (np.array(views_of), function, [np.array(column) for column in zip(*arguments)])
        for function, (views_of, arguments) in passes.items()
    )


def _merge_rows(operation, values: np.ndarray, inverse: np.ndarray, n_keys: int):
    """``(len(values), n_keys)``: the rows ``inverse`` maps to each key,
    merged in row order, NaN where a key has no non-NULL row."""
    bins = (np.arange(len(values))[:, None] * n_keys + inverse).ravel()
    flat = values.ravel()
    size = len(values) * n_keys
    if operation is _add:
        valid = ~np.isnan(flat)
        # bincount returns int64 for empty input; values are FLOAT.
        merged = np.bincount(bins[valid], weights=flat[valid], minlength=size)
        merged = merged.astype(np.float64)
        merged[np.bincount(bins[valid], minlength=size) == 0] = np.nan
    else:
        merged = np.full(size, np.nan)
        operation.at(merged, bins, flat)
    return merged.reshape(len(values), n_keys)
