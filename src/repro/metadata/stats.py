"""Column and table statistics.

These are the "data distribution" inputs to variance-based and
correlation-based pruning (§3.3) and the cost-based planner's
cardinalities. :class:`TableStats` covers the dimension columns and is
computed once per ``(table, data_version)`` by the
:class:`~repro.metadata.collector.MetadataCollector`; a measure's
statistics are computed on demand by :func:`compute_column_stats`, and a
multi-attribute view's key set's by :func:`compute_key_set_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.db.groupby import combine_codes, factorize
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType


@dataclass(frozen=True)
class ColumnStats:
    """Distribution summary of one column."""

    name: str
    dtype: DataType
    role: AttributeRole
    n_rows: int
    n_distinct: int
    null_count: int
    #: Population variance of the *group-size distribution* for dimensions
    #: (how evenly rows spread over values), or of the values themselves for
    #: numeric measures. This is the quantity variance-based pruning uses.
    variance: float
    #: Shannon entropy (bits) of the value distribution; 0 for constants.
    entropy: float
    #: Numeric-only summary; None for non-numeric columns.
    min_value: float | None = None
    max_value: float | None = None
    mean: float | None = None
    #: Most frequent values with counts, descending (capped).
    top_values: tuple[tuple[Any, int], ...] = field(default=())

    @property
    def distinct_fraction(self) -> float:
        """n_distinct / n_rows (0 for empty columns)."""
        return self.n_distinct / self.n_rows if self.n_rows else 0.0

    @property
    def is_constant(self) -> bool:
        """True when the column takes at most one value."""
        return self.n_distinct <= 1


@dataclass(frozen=True)
class TableStats:
    """Statistics for the dimension columns of a table."""

    table_name: str
    n_rows: int
    columns: dict[str, ColumnStats]

    def __getitem__(self, name: str) -> ColumnStats:
        return self.columns[name]

    def cardinalities(self) -> dict[str, int]:
        """{dimension: n_distinct} for every dimension column."""
        return {name: stats.n_distinct for name, stats in self.columns.items()}


def compute_column_stats(table: Table, name: str, top_k: int = 10) -> ColumnStats:
    """Compute :class:`ColumnStats` for ``table.column(name)``.

    Counts come from the column's dictionary encoding
    (:meth:`Table.codes`), made once per table: a string column's rows are
    hashed and only its distinct values sorted (an ID-like one is sorted
    whole). Only a float column's NaNs count as NULL — its sort gathers
    them into one last group, dropped here.
    """
    spec = table.schema[name]
    values = table.column(name)
    n_rows = len(values)
    codes, uniques = table.codes(name)
    counts = np.bincount(codes, minlength=len(uniques))

    null_count = 0
    valid = values
    if values.dtype.kind == "f" and len(uniques) and np.isnan(uniques[-1]):
        null_count = int(counts[-1])
        counts, uniques = counts[:-1], uniques[:-1]
        valid = values[~np.isnan(values)]

    if len(valid) == 0:
        return ColumnStats(
            name, spec.dtype, spec.role, n_rows, 0, null_count, 0.0, 0.0
        )

    counts = counts.astype(np.float64)
    probabilities = counts / counts.sum()
    entropy = _entropy_bits(probabilities)

    if spec.dtype.is_numeric:
        as_float = valid.astype(np.float64)
        variance = float(np.var(as_float))
        min_value, max_value = float(as_float.min()), float(as_float.max())
        mean = float(as_float.mean())
    else:
        # For categorical columns, "variance" is the variance of group
        # *shares*: a column where every row has the same value has share
        # vector (1, 0, ..) and high share variance but produces useless
        # views — what pruning really wants is spread across groups, which
        # entropy captures; we store the share variance for completeness.
        variance = float(np.var(probabilities))
        min_value = max_value = mean = None

    order = np.argsort(counts)[::-1][:top_k]
    top_values = tuple(
        (_as_python(uniques[i]), int(counts[i])) for i in order
    )
    return ColumnStats(
        name=name,
        dtype=spec.dtype,
        role=spec.role,
        n_rows=n_rows,
        n_distinct=len(uniques),
        null_count=null_count,
        variance=variance,
        entropy=entropy,
        min_value=min_value,
        max_value=max_value,
        mean=mean,
        top_values=top_values,
    )


def compute_key_set_stats(table: Table, keys: tuple[str, ...]) -> ColumnStats:
    """Statistics of a key set (two or more dimension columns) read as one
    categorical attribute whose values are the key combinations present.

    A NULL key is one value, as in ``GROUP BY``, so ``n_distinct`` is the
    number of groups the view shows and ``null_count`` is 0. The joint
    codes combine each column's cached :meth:`Table.codes`
    (:func:`~repro.db.groupby.combine_codes`); no column is re-encoded.
    """
    encoded = combine_codes(
        [table.codes(key) for key in keys],
        [table.column(key) for key in keys],
        list(keys),
        table.num_rows,
    )
    counts = np.bincount(encoded.codes, minlength=encoded.n_groups)
    probabilities = counts / max(table.num_rows, 1)
    return ColumnStats(
        name=f"({', '.join(keys)})",
        dtype=DataType.STR,
        role=AttributeRole.DIMENSION,
        n_rows=table.num_rows,
        n_distinct=encoded.n_groups,
        null_count=0,
        variance=float(np.var(probabilities)) if encoded.n_groups else 0.0,
        entropy=_entropy_bits(probabilities),
    )


def _entropy_bits(probabilities: np.ndarray) -> float:
    nonzero = probabilities[probabilities > 0]
    return float(-(nonzero * np.log2(nonzero)).sum())


def compute_table_stats(table: Table, top_k: int = 10) -> TableStats:
    """Compute stats for every dimension column of ``table``."""
    return TableStats(
        table_name=table.name,
        n_rows=table.num_rows,
        columns={
            spec.name: compute_column_stats(table, spec.name, top_k=top_k)
            for spec in table.schema.dimensions
        },
    )


def cramers_v(values_a: np.ndarray, values_b: np.ndarray) -> float:
    """Cramér's V association between two categorical columns, in [0, 1].

    1 means a bijection-like dependency (e.g. airport full name vs airport
    code — the paper's example of prunable redundancy), 0 independence.
    Bias-corrected per Bergsma (2013) to avoid spurious association from
    high cardinality on small tables.
    """
    if len(values_a) != len(values_b):
        raise ValueError("columns must have equal length")
    return cramers_v_codes(factorize(values_a), factorize(values_b))


def cramers_v_codes(
    encoded_a: tuple[np.ndarray, np.ndarray],
    encoded_b: tuple[np.ndarray, np.ndarray],
) -> float:
    """:func:`cramers_v` from two equal-length ``(codes, uniques)``
    encodings: the contingency table is one ``bincount``."""
    (codes_a, uniques_a), (codes_b, uniques_b) = encoded_a, encoded_b
    n = len(codes_a)
    r, k = len(uniques_a), len(uniques_b)
    if n == 0 or r <= 1 or k <= 1:
        return 0.0
    contingency = (
        np.bincount(codes_a.astype(np.int64) * k + codes_b, minlength=r * k)
        .reshape(r, k)
        .astype(np.float64)
    )
    row_totals = contingency.sum(axis=1, keepdims=True)
    col_totals = contingency.sum(axis=0, keepdims=True)
    expected = row_totals @ col_totals / n
    with np.errstate(invalid="ignore", divide="ignore"):
        chi2 = np.nansum(
            np.where(expected > 0, (contingency - expected) ** 2 / expected, 0.0)
        )
    phi2 = chi2 / n
    # Bergsma bias correction:
    phi2_corrected = max(0.0, phi2 - (k - 1) * (r - 1) / (n - 1))
    r_corrected = r - (r - 1) ** 2 / (n - 1)
    k_corrected = k - (k - 1) ** 2 / (n - 1)
    denominator = min(r_corrected - 1, k_corrected - 1)
    if denominator <= 0:
        return 0.0
    return float(np.sqrt(phi2_corrected / denominator))


def pearson_correlation(values_a: np.ndarray, values_b: np.ndarray) -> float:
    """|Pearson r| between two numeric columns (NaN rows dropped)."""
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    mask = ~(np.isnan(a) | np.isnan(b))
    a, b = a[mask], b[mask]
    if len(a) < 2 or np.std(a) == 0 or np.std(b) == 0:
        return 0.0
    return float(abs(np.corrcoef(a, b)[0, 1]))


def _as_python(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value
