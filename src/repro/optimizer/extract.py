"""Extraction of per-view series from shared query results.

Plan steps produce result tables whose shape depends on the combining
strategy (flag-partitioned, grouping-set, multi-dimensional rollup). This
module turns any of them back into per-view :class:`RawViewData` — the
"post-process results at the backend" the paper mentions — including the
partition merge that recovers the comparison view and the marginalization
that recovers single-dimension views from a rollup.

It also hosts the columnar side of the Execute→Score data plane:
:func:`blocks_from_raw` regroups extracted views by dimension attribute and
materializes one dense ``(views, groups)`` :class:`ViewBlock` per
attribute, computing each attribute's union key universe **once** instead
of re-deriving it per view — the representation
:meth:`repro.core.view_processor.ViewProcessor.score_batch` consumes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.model.view import RawViewData, ViewBlock, ViewSpec
from repro.db.aggregates import Aggregate
from repro.db.table import Table
from repro.metrics.normalize import align_batch, canonical_key, group_sort_key
from repro.optimizer.combine import (
    merge_aux_arrays,
    merge_fill_value,
    merge_spec,
)
from repro.util.errors import MetricError, QueryError

#: Name of the virtual target/comparison flag column in combined queries.
FLAG_NAME = "__seedb_flag"


def table_series(table: Table, key_column: str, value_column: str):
    """(keys, values) of a two-column view result, keys canonicalized."""
    keys = [canonical_key(k) for k in table.column(key_column)]
    return keys, np.asarray(table.column(value_column), dtype=np.float64)


def aux_arrays(table: Table, aggregates: tuple[Aggregate, ...]):
    """{alias: values} for the auxiliary aggregate columns of a result."""
    return {
        aggregate.alias: np.asarray(table.column(aggregate.alias), dtype=np.float64)
        for aggregate in aggregates
    }


def align_aux(
    keys_a: list,
    arrays_a: dict[str, np.ndarray],
    keys_b: list,
    arrays_b: dict[str, np.ndarray],
    aggregates: tuple[Aggregate, ...],
):
    """Align two partitions' aux arrays on the union of their group keys.

    Missing groups get each aggregate's neutral fill (0 for sums/counts,
    NaN for extrema). Returns ``(union_keys, aligned_a, aligned_b)``.
    """
    index_a = {key: i for i, key in enumerate(keys_a)}
    index_b = {key: i for i, key in enumerate(keys_b)}
    union = sorted(set(index_a) | set(index_b), key=group_sort_key)
    aligned_a: dict[str, np.ndarray] = {}
    aligned_b: dict[str, np.ndarray] = {}
    for aggregate in aggregates:
        fill = merge_fill_value(aggregate)
        values_a = arrays_a[aggregate.alias]
        values_b = arrays_b[aggregate.alias]
        aligned_a[aggregate.alias] = np.array(
            [values_a[index_a[k]] if k in index_a else fill for k in union]
        )
        aligned_b[aggregate.alias] = np.array(
            [values_b[index_b[k]] if k in index_b else fill for k in union]
        )
    return union, aligned_a, aligned_b


def dimension_keys(part: Table, dimension: "str | tuple[str, ...]") -> list:
    """Canonicalized group keys of a result partition.

    A single dimension yields scalar keys; a tuple of dimensions yields
    tuple keys over the attribute-value combinations (the multi-attribute
    generalization of §2).
    """
    if isinstance(dimension, tuple):
        columns = [part.column(name) for name in dimension]
        return [
            tuple(canonical_key(column[i]) for column in columns)
            for i in range(part.num_rows)
        ]
    return [canonical_key(k) for k in part.column(dimension)]


def view_dimension(view) -> "str | tuple[str, ...]":
    """What ``view`` groups by: one attribute name, or a tuple of names for a
    multi-attribute view (specs are duck-typed on ``dimension`` /
    ``dimensions``)."""
    dimension = getattr(view, "dimension", None)
    return dimension if dimension is not None else tuple(view.dimensions)


def extract_views(
    results: "tuple[Table, ...]",
    dimension: "str | tuple[str, ...]",
    views: tuple[ViewSpec, ...],
    aggregates: tuple[Aggregate, ...],
    merge: bool = True,
) -> dict[ViewSpec, RawViewData]:
    """Per-view target and comparison series from one group's results.

    ``results`` is what the group's queries returned, all grouped by
    ``dimension`` (a tuple of names yields attribute-value tuple keys —
    multi-attribute views) and carrying ``aggregates``:

    * ``(combined,)`` — one flag-combined result grouped by
      ``(flag, dimension)``. Target = the flag=1 partition; comparison =
      both partitions merged when ``merge`` (the comparison view covers
      the entire table, §2 — the ``table`` reference), or the flag=0
      partition alone (the ``complement`` reference, D ∖ D_Q).
    * ``(target, comparison)`` — one result per side; the comparison
      query already selected the reference's rows, nothing is merged.

    A view reads its own aggregate's column when the queries carried it and
    is otherwise reconstructed from the auxiliary columns they carried
    instead (``avg`` from ``sum``/``countv``, ...).
    """
    if len(results) == 1:
        (combined,) = results
        flags = np.asarray(combined.column(FLAG_NAME))
        target, comparison = combined.mask(flags == 1), combined.mask(flags == 0)
    else:
        target, comparison = results
        merge = False
    # One key list per side, aliased by every view of the group: lets
    # blocks_from_raw recognize the shared universe by identity instead of
    # re-canonicalizing keys per view.
    target_keys = dimension_keys(target, dimension)
    target_columns = aux_arrays(target, aggregates)
    comparison_keys = dimension_keys(comparison, dimension)
    comparison_columns = aux_arrays(comparison, aggregates)
    if merge:
        comparison_keys, aligned_target, aligned_rest = align_aux(
            target_keys, target_columns, comparison_keys, comparison_columns,
            aggregates,
        )
        comparison_columns = {
            aggregate.alias: merge_aux_arrays(
                aggregate,
                aligned_target[aggregate.alias],
                aligned_rest[aggregate.alias],
            )
            for aggregate in aggregates
        }

    def values(view: ViewSpec, columns: dict[str, np.ndarray]) -> np.ndarray:
        alias = view.aggregate.alias
        if alias in columns:
            return columns[alias]
        return merge_spec(view.aggregate).reconstruct(columns)

    return {
        view: RawViewData(
            spec=view,
            target_keys=target_keys,
            target_values=values(view, target_columns),
            comparison_keys=comparison_keys,
            comparison_values=values(view, comparison_columns),
        )
        for view in views
    }


def marginalize(
    result: Table,
    keys: tuple[str, ...],
    aggregates: tuple[Aggregate, ...],
    flag_name: "str | None" = None,
) -> Table:
    """Project a multi-dimensional rollup result onto one view group's keys.

    Groups the (small) result rows by ``keys`` (and the flag, when present)
    and merges each auxiliary aggregate across the collapsed dimensions —
    additive aggregates sum, extrema take fmin/fmax. This is the backend
    post-processing step of the "Combine Multiple Group-bys" optimization.
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

    Views are bucketed by ``(dimension, target keys, comparison keys)`` —
    views extracted from the same shared query alias the same key-list
    objects, so the bucket key is usually resolved by identity without
    touching the keys at all. Each bucket's union key universe and
    key→column mapping are then computed once (:func:`align_batch`) and
    every member view's values are scattered into the block matrices in
    bulk, replacing the per-view dict merge + sorted-union work the scalar
    path performs ``n_views`` times.

    Scoring a block row-by-row yields bit-for-bit the same distributions
    and utilities as scoring each member's :class:`RawViewData` alone,
    because a bucket's key universe *is* each member's own key union.
    """
    if isinstance(raw_views, Mapping):
        raw_views = raw_views.values()
    key_memo: dict[int, tuple] = {}
    referents: list = []  # keep memoized key-list objects alive (id reuse)

    def canonical_tuple(keys) -> tuple:
        cached = key_memo.get(id(keys))
        if cached is None:
            cached = tuple(canonical_key(key) for key in keys)
            key_memo[id(keys)] = cached
            referents.append(keys)
        return cached

    buckets: dict[tuple, list[RawViewData]] = {}
    for raw in raw_views:
        bucket_key = (
            view_dimension(raw.spec),
            canonical_tuple(raw.target_keys),
            canonical_tuple(raw.comparison_keys),
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
