"""Normalization of view results into aligned probability distributions.

Paper §2: "We normalize each result table into a probability distribution,
such that the values of f(m) sum to 1." Two practical issues the paper
glosses over are handled explicitly here:

* **Alignment** — the target view (filtered rows) may be missing groups that
  exist in the comparison view (all rows). Distances are only meaningful
  over a common support, so :func:`align_series` takes the union of group
  keys (sorted for determinism) and fills absent groups with 0.
* **Negative or NaN aggregates** — ``SUM(profit)`` can be negative and
  ``AVG`` over an empty group is NaN. :class:`NormalizationPolicy` chooses
  how to coerce values into valid mass: reject, shift by the minimum, or
  take absolute values.

Both concerns come in scalar and *batch* form. The batch functions
(:func:`align_batch`, :func:`normalize_batch`) operate on dense
``(n_views, n_groups)`` matrices — the columnar Score-path representation —
and the scalar functions delegate to them on one-row matrices, so the two
paths agree bit-for-bit.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

import numpy as np

from repro.util.errors import MetricError


class NormalizationPolicy(enum.Enum):
    """How to handle values that are not valid probability mass."""

    STRICT = "strict"  # negative values raise MetricError
    SHIFT = "shift"  # subtract the minimum (if negative) before normalizing
    ABSOLUTE = "absolute"  # use |value|


def normalize_distribution(
    values: "np.ndarray | Sequence[float]",
    policy: NormalizationPolicy = NormalizationPolicy.STRICT,
) -> np.ndarray:
    """Scale ``values`` into a probability vector summing to 1.

    NaN entries (e.g. AVG of an empty group) contribute zero mass. An
    all-zero vector normalizes to the uniform distribution — the natural
    limit that keeps distances finite and makes "no data on either side"
    compare as identical.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise MetricError(f"expected a 1-D value array, got shape {array.shape}")
    return normalize_batch(array[np.newaxis, :], policy)[0]


def normalize_batch(
    matrix: "np.ndarray | Sequence[Sequence[float]]",
    policy: NormalizationPolicy = NormalizationPolicy.STRICT,
) -> np.ndarray:
    """Row-wise :func:`normalize_distribution` on a ``(n_views, n_groups)``
    matrix; returns a matrix of the same shape whose rows each sum to 1.

    Each row is treated exactly like the scalar function treats its vector:
    NaN entries become zero mass, a row containing negatives is shifted or
    folded per ``policy`` (STRICT raises), and a row with no positive mass
    normalizes to uniform. The input is never mutated, and — absent
    NaN/negative rewrites — never copied either: the only allocation on
    clean input is the divided result.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2:
        raise MetricError(f"expected a 2-D value matrix, got shape {M.shape}")
    if M.shape[1] == 0:
        raise MetricError("cannot normalize an empty distribution")
    owned = False
    nan_mask = np.isnan(M)
    if np.any(nan_mask):
        M = M.copy()
        M[nan_mask] = 0.0
        owned = True
    negative = M < 0
    if np.any(negative):
        if policy is NormalizationPolicy.STRICT:
            raise MetricError(
                "negative values cannot be normalized under the STRICT policy; "
                "use SHIFT or ABSOLUTE for measures like profit"
            )
        if not owned:
            M = M.copy()
        negative_rows = np.any(negative, axis=1)
        if policy is NormalizationPolicy.SHIFT:
            M[negative_rows] -= M[negative_rows].min(axis=1, keepdims=True)
        else:
            M[negative_rows] = np.abs(M[negative_rows])
    totals = M.sum(axis=1)
    bad = (totals <= 0) | ~np.isfinite(totals)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = M / totals[:, np.newaxis]
    if np.any(bad):
        result[bad] = 1.0 / M.shape[1]
    return result


def align_series(
    keys_a: Sequence[Any],
    values_a: "np.ndarray | Sequence[float]",
    keys_b: Sequence[Any],
    values_b: "np.ndarray | Sequence[float]",
    fill: float = 0.0,
) -> tuple[list[Any], np.ndarray, np.ndarray]:
    """Align two keyed series onto the sorted union of their keys.

    Returns ``(union_keys, aligned_a, aligned_b)``. Missing groups are
    filled with ``fill`` (0 = no mass). Duplicate keys within one series are
    rejected: a view result must have one row per group.
    """
    matrix_a = np.asarray(values_a, dtype=np.float64)
    matrix_b = np.asarray(values_b, dtype=np.float64)
    if matrix_a.ndim != 1 or matrix_b.ndim != 1:
        raise MetricError("series values must be 1-D arrays")
    union, aligned_a, aligned_b = align_batch(
        keys_a,
        matrix_a[np.newaxis, :],
        keys_b,
        matrix_b[np.newaxis, :],
        fill=fill,
    )
    return union, aligned_a[0], aligned_b[0]


def align_batch(
    keys_a: Sequence[Any],
    matrix_a: np.ndarray,
    keys_b: Sequence[Any],
    matrix_b: np.ndarray,
    fill: float = 0.0,
) -> tuple[list[Any], np.ndarray, np.ndarray]:
    """Align two batches of keyed series onto the sorted key union.

    ``matrix_a`` is ``(n_views, len(keys_a))`` — one row per view, every
    row keyed by the shared ``keys_a`` — and likewise for ``matrix_b``.
    This is the columnar form of :func:`align_series`: the union key
    universe is computed **once** for the whole batch, and all rows are
    scattered into the dense ``(n_views, n_union)`` result with two fancy
    -index assignments instead of per-view dict merges. Returns
    ``(union_keys, aligned_a, aligned_b)``.
    """
    index_a = _key_index(keys_a, matrix_a, "first")
    index_b = _key_index(keys_b, matrix_b, "second")
    union = sorted(set(index_a) | set(index_b), key=group_sort_key)
    aligned_a = _scatter(matrix_a, index_a, union, fill)
    aligned_b = _scatter(matrix_b, index_b, union, fill)
    return union, aligned_a, aligned_b


def _key_index(keys: Sequence[Any], matrix: np.ndarray, label: str) -> dict[Any, int]:
    """{canonical key: source column} for one batch, validating shape/dups."""
    if matrix.ndim != 2:
        raise MetricError(f"{label} series batch must be a 2-D matrix")
    if len(keys) != matrix.shape[1]:
        raise MetricError(
            f"{label} series: {len(keys)} keys but {matrix.shape[1]} values"
        )
    index: dict[Any, int] = {}
    for position, key in enumerate(keys):
        key = canonical_key(key)
        if key in index:
            raise MetricError(f"{label} series has duplicate group key {key!r}")
        index[key] = position
    return index


def _scatter(
    matrix: np.ndarray, index: dict[Any, int], union: list[Any], fill: float
) -> np.ndarray:
    """Spread batch columns onto the union universe, filling absent keys."""
    matrix = np.asarray(matrix, dtype=np.float64)
    aligned = np.full((matrix.shape[0], len(union)), fill, dtype=np.float64)
    destinations: list[int] = []
    sources: list[int] = []
    for position, key in enumerate(union):
        source = index.get(key)
        if source is not None:
            destinations.append(position)
            sources.append(source)
    if destinations:
        aligned[:, destinations] = matrix[:, sources]
    return aligned


def canonical_key(key: Any) -> Any:
    """The one identity of a group key across backends and array dtypes.

    Group keys cross several representations (numpy scalars from the memory
    engine, Python scalars from sqlite rows); canonicalizing to Python
    scalars makes dict-based alignment work across backends. A NULL is
    ``None`` however it arrived — a FLOAT column's NaN, a DATE column's NaT
    — so, as in SQL, all NULLs are one group (``nan != nan`` would open a
    new one at every lookup). A tuple key canonicalizes component-wise.
    """
    if isinstance(key, tuple):
        return tuple(canonical_key(part) for part in key)
    if isinstance(key, np.generic):
        key = key.item()
    if isinstance(key, float) and key != key:
        return None
    return key


def group_sort_key(key: Any) -> tuple[str, Any]:
    """Sort mixed-type key unions deterministically by (type name, value).

    Tuple keys (multi-attribute views) order component-wise by the same
    rule, so a NULL component never meets a string in a comparison.
    """
    if isinstance(key, tuple):
        return ("tuple", tuple(group_sort_key(part) for part in key))
    return (type(key).__name__, key)
