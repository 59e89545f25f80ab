"""From shared query results to the View Processor's blocks.

Plan steps produce result tables whose shape depends on the combining
strategy (flag-partitioned, grouping-set, multi-dimensional rollup). This
module is the "post-process results at the backend" the paper mentions:
:func:`side_partials` turns one view group's results into its
:class:`~repro.optimizer.combine.Partial`\\ s, one per side (a rollup
result is first projected onto the group's keys by :func:`marginalize`),
and :func:`group_block` turns those into the group's dense
:class:`ViewBlock` — merging the two flag partitions into the ``table``
comparison and reconstructing algebraic aggregates on the way.
:func:`blocks_from_raw` builds blocks from per-view :class:`RawViewData`
(the scalar scoring oracle's input).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.model.view import RawViewData, ViewBlock, ViewSpec
from repro.db.aggregates import Aggregate
from repro.db.table import Table
from repro.metrics.normalize import align_batch, canonical_key, group_sort_key
from repro.optimizer.combine import Partial, merge_partials, merge_spec
from repro.util.errors import MetricError, QueryError

#: Name of the virtual target/comparison flag column in combined queries.
FLAG_NAME = "__seedb_flag"


def table_series(table: Table, key_column: str, value_column: str):
    """(keys, values) of a two-column view result, keys canonicalized."""
    keys = [canonical_key(k) for k in table.column(key_column)]
    return keys, np.asarray(table.column(value_column), dtype=np.float64)


def view_dimension(view) -> "str | tuple[str, ...]":
    """What ``view`` groups by: one attribute name, or a tuple of names for a
    multi-attribute view (specs are duck-typed on ``dimension`` /
    ``dimensions``)."""
    dimension = getattr(view, "dimension", None)
    return dimension if dimension is not None else tuple(view.dimensions)


def side_partials(
    results: "tuple[Table, ...]",
    dimension: "str | tuple[str, ...]",
    aggregates: tuple[Aggregate, ...],
) -> tuple[Partial, Partial]:
    """One view group's partials, ``(target, second side)``.

    ``results`` is what the group's queries returned, all grouped by
    ``dimension`` (a tuple of names yields attribute-value tuple keys —
    multi-attribute views) and carrying ``aggregates``: ``(combined,)``
    grouped by ``(flag, dimension)``, whose flag=1 rows are the target and
    flag=0 rows the rest, or ``(target, comparison)``, one result per side.
    """
    if len(results) == 1:
        (combined,) = results
        flags = np.asarray(combined.column(FLAG_NAME))
        return (
            _partial(combined, dimension, aggregates, flags == 1),
            _partial(combined, dimension, aggregates, flags == 0),
        )
    target, comparison = results
    return (
        _partial(target, dimension, aggregates),
        _partial(comparison, dimension, aggregates),
    )


def _partial(table, dimension, aggregates, rows=None) -> Partial:
    """The partial of ``table``'s ``rows`` (all when None), keys sorted."""
    names = dimension if isinstance(dimension, tuple) else (dimension,)
    columns = [table.column(name) for name in names]
    values = np.array(
        [table.column(aggregate.alias) for aggregate in aggregates],
        dtype=np.float64,
    ).reshape(len(aggregates), table.num_rows)
    if rows is not None:
        columns = [column[rows] for column in columns]
        values = values[:, rows]
    if isinstance(dimension, tuple):
        keys = [tuple(canonical_key(v) for v in row) for row in zip(*columns)]
    else:
        keys = [canonical_key(v) for v in columns[0]]
    order = sorted(range(len(keys)), key=lambda i: group_sort_key(keys[i]))
    return Partial([keys[i] for i in order], values[:, order])


def group_block(
    dimension: "str | tuple[str, ...]",
    views: tuple[ViewSpec, ...],
    sides: tuple[Partial, Partial],
    aggregates: tuple[Aggregate, ...],
    merge: bool,
) -> ViewBlock:
    """The :class:`ViewBlock` of ``views`` from their group's partials.

    With ``merge`` the comparison is both flag partitions merged (it covers
    the entire table, §2 — the ``table`` reference), otherwise the second
    side as fetched. A key missing from one side reads 0 (no mass).
    """
    target, comparison = sides
    if merge:
        comparison = merge_partials(target, comparison, aggregates)
    target_values = _view_values(views, target, aggregates)
    comparison_values = _view_values(views, comparison, aggregates)
    if target.keys == comparison.keys:
        groups = target.keys
    else:
        groups, target_values, comparison_values = align_batch(
            target.keys, target_values, comparison.keys, comparison_values
        )
    return ViewBlock(
        dimension=dimension,
        specs=tuple(views),
        groups=groups,
        target=target_values,
        comparison=comparison_values,
    )


def _view_values(views, partial: Partial, aggregates) -> np.ndarray:
    """``(n_views, n_keys)``: each view's own aggregate row when the
    queries carried it, else its reconstruction from the auxiliary rows."""
    rows = dict(zip((aggregate.alias for aggregate in aggregates), partial.values))
    values = np.empty((len(views), len(partial.keys)), dtype=np.float64)
    for index, view in enumerate(views):
        alias = view.aggregate.alias
        values[index] = (
            rows[alias] if alias in rows else merge_spec(view.aggregate).reconstruct(rows)
        )
    return values


def marginalize(
    result: Table,
    keys: tuple[str, ...],
    aggregates: tuple[Aggregate, ...],
    flag_name: "str | None" = None,
) -> Table:
    """Project a multi-dimensional rollup result onto one view group's keys.

    Groups the (small) result rows by ``keys`` (and the flag, when present)
    and merges each auxiliary aggregate across the collapsed dimensions —
    additive aggregates sum, extrema take fmin/fmax, NaN (SQL NULL) being
    the identity as in :func:`~repro.optimizer.combine.merge_partials`.
    This is the backend post-processing step of the "Combine Multiple
    Group-bys" optimization.
    """
    from repro.db.groupby import factorize  # local import to avoid cycles
    from repro.db.schema import Schema

    group_columns = ([] if flag_name is None else [flag_name]) + list(keys)
    combined = np.zeros(result.num_rows, dtype=np.int64)
    for name in group_columns:
        codes, uniques = factorize(result.column(name))
        combined = combined * len(uniques) + codes
    unique_codes, first_index, compact = np.unique(
        combined, return_index=True, return_inverse=True
    )
    n_groups = len(unique_codes)

    arrays: dict[str, np.ndarray] = {
        name: result.column(name)[first_index] for name in group_columns
    }
    for aggregate in aggregates:
        values = np.asarray(result.column(aggregate.alias), dtype=np.float64)
        if aggregate.func in ("sum", "count", "countv", "sumsq"):
            mask = ~np.isnan(values)
            # bincount returns int64 for empty input; results are FLOAT.
            merged = np.bincount(
                compact[mask], weights=values[mask], minlength=n_groups
            ).astype(np.float64)
            merged[np.bincount(compact[mask], minlength=n_groups) == 0] = np.nan
        elif aggregate.func in ("min", "max"):
            merged = np.full(n_groups, np.nan)
            ufunc = np.fmin if aggregate.func == "min" else np.fmax
            ufunc.at(merged, compact, values)
        else:
            raise QueryError(
                f"cannot marginalize non-distributive aggregate {aggregate.func!r}"
            )
        arrays[aggregate.alias] = merged

    specs = tuple(
        result.schema[name] for name in group_columns
    ) + tuple(result.schema[aggregate.alias] for aggregate in aggregates)
    return Table(f"{result.name}_marg_{'_'.join(keys)}", Schema(specs), arrays)


def blocks_from_raw(
    raw_views: "Mapping[ViewSpec, RawViewData] | Iterable[RawViewData]",
) -> list[ViewBlock]:
    """Regroup per-view series into dense per-attribute :class:`ViewBlock`\\ s.

    Views are bucketed by ``(dimension, target keys, comparison keys)``,
    keys canonicalized. Each bucket's union key universe and key→column
    mapping are then computed once (:func:`align_batch`) and every member
    view's values are scattered into the block matrices in bulk.

    Scoring a block row-by-row yields bit-for-bit the same distributions
    and utilities as scoring each member's :class:`RawViewData` alone,
    because a bucket's key universe *is* each member's own key union.
    """
    if isinstance(raw_views, Mapping):
        raw_views = raw_views.values()
    buckets: dict[tuple, list[RawViewData]] = {}
    for raw in raw_views:
        bucket_key = (
            view_dimension(raw.spec),
            tuple(canonical_key(key) for key in raw.target_keys),
            tuple(canonical_key(key) for key in raw.comparison_keys),
        )
        buckets.setdefault(bucket_key, []).append(raw)

    blocks: list[ViewBlock] = []
    for (dimension, target_keys, comparison_keys), members in buckets.items():
        target_matrix = _stack_values(members, "target", len(target_keys))
        comparison_matrix = _stack_values(
            members, "comparison", len(comparison_keys)
        )
        union, aligned_target, aligned_comparison = align_batch(
            target_keys, target_matrix, comparison_keys, comparison_matrix
        )
        blocks.append(
            ViewBlock(
                dimension=dimension,
                specs=tuple(raw.spec for raw in members),
                groups=union,
                target=aligned_target,
                comparison=aligned_comparison,
            )
        )
    return blocks


def _stack_values(
    members: list[RawViewData], side: str, n_keys: int
) -> np.ndarray:
    """Stack one side's value arrays into a ``(n_views, n_keys)`` matrix."""
    label = "first" if side == "target" else "second"
    matrix = np.empty((len(members), n_keys), dtype=np.float64)
    for row, raw in enumerate(members):
        values = np.asarray(getattr(raw, f"{side}_values"), dtype=np.float64)
        if values.ndim != 1:
            raise MetricError(
                f"{label} series values must be 1-D, got shape {values.shape}"
            )
        if values.shape[0] != n_keys:
            raise MetricError(
                f"{label} series: {n_keys} keys but {values.shape[0]} values"
            )
        matrix[row] = values
    return matrix
