"""Vectorized group-by: factorization and grouped aggregation.

The executor's core primitive. A *factorization* maps each row to a dense
group code ``0..n_groups-1``; grouped aggregation then reads each measure
column once by code, and each aggregate's reducer
(:mod:`repro.db.aggregates`) turns that into final per-group values.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.db.aggregates import AGGREGATE_FUNCTIONS, Aggregate, Grouped, nan_mask
from repro.util.errors import QueryError


@dataclass(frozen=True)
class Factorization:
    """Dense group codes for one or more key columns.

    ``keys`` holds, per key column, the distinct key value of each group
    (all arrays of length ``n_groups``, aligned with the codes).
    """

    codes: np.ndarray
    n_groups: int
    keys: dict[str, np.ndarray]


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map ``values`` to dense codes; return ``(codes, uniques)``.

    Equivalent to pandas' ``factorize`` but ordered by sorted unique value,
    which makes group order deterministic across engines (SQL ``ORDER BY``
    and numpy both sort), an invariant the distribution-alignment code in
    :mod:`repro.metrics.normalize` relies on.

    An object column's NULL (``None``, or a float NaN) is one group, code
    0, labelled ``None`` — the way SQL groups NULLs, and never merged with
    the string ``"None"``.

    An object column of strings and NULLs is hashed, not sorted: one pass
    over a dict numbers the distinct values as they first appear, only
    those are sorted, and the codes are renumbered to their sorted order.
    That pays while the distinct values are far fewer than the rows. An
    ID-like column, more than 3/4 distinct over its first sixteenth of
    rows, would cost a dict entry and a Python sort step per row; when its
    strings render as themselves (so both ways group alike) it is sorted
    as a fixed-width array instead, as is any object column that holds
    more than strings and NULLs (rows then group on their string
    rendering).
    """
    if values.dtype != object:
        uniques, codes = np.unique(values, return_inverse=True)
        return codes, uniques
    items = values.tolist()
    first_seen = defaultdict(itertools.count().__next__)
    numbered = map(first_seen.__getitem__, items)
    head = len(items) // 16
    try:
        codes = np.fromiter(numbered, dtype=np.intp, count=head)
        rendered = 4 * len(first_seen) > 3 * head and _renders_as_itself(items)
        if not rendered:
            rest = np.fromiter(numbered, dtype=np.intp, count=len(items) - head)
            codes = np.concatenate([codes, rest])
    except TypeError:  # an unhashable value
        rendered = True
    if rendered:
        return _factorize_rendered(values)
    texts = list(first_seen)  # the string each first-seen code groups on
    if not set(map(type, texts)) <= {str}:
        for index, value in enumerate(texts):
            if isinstance(value, str):
                # The plain string a subclass holds (as sqlite stores it):
                # str() would call numpy.str_.__str__, which drops trailing NULs.
                texts[index] = str.__str__(value)
            elif value is None or (isinstance(value, (float, np.floating)) and value != value):
                texts[index] = None
            else:
                return _factorize_rendered(values)
    distinct = set(texts)
    labels = ([None] if None in distinct else []) + sorted(distinct - {None})
    sorted_code = dict(zip(labels, itertools.count()))  # every NULL key: code 0
    remap = np.fromiter(map(sorted_code.__getitem__, texts), dtype=np.intp, count=len(texts))
    return remap[codes], np.array(labels, dtype=object)


def _renders_as_itself(items: list) -> bool:
    """Whether every string among ``items`` is its own fixed-width rendering,
    so sorting the rendering groups them as hashing would: a plain ``str``
    or ``numpy.str_`` holding no NUL, which the ``U`` dtype drops when it
    trails (another ``str`` subclass, such as a str-mixin ``Enum``, renders
    as its ``__str__``)."""
    kinds = set(map(type, items))
    if any(issubclass(kind, str) and kind not in (str, np.str_) for kind in kinds):
        return False
    strings = items if kinds == {str} else filter(str.__instancecheck__, items)
    return "\x00" not in "".join(strings)


def _factorize_rendered(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`factorize` of an object column that is sorted, not hashed:
    rows group on their string rendering."""
    # Only a group rendered "None" or "nan" can hold a NULL, so only its
    # rows are looked at one by one.
    rendered, codes = np.unique(values.astype(str), return_inverse=True)
    uniques = rendered.astype(object)
    suspects = np.flatnonzero((rendered == "None") | (rendered == "nan"))
    rows = np.flatnonzero(np.isin(codes, suspects)) if len(suspects) else suspects
    null = rows[[value is None or value != value for value in values[rows]]]
    if not len(null):
        return codes, uniques
    codes = codes + 1
    codes[null] = 0
    return compact_codes(codes, np.concatenate([np.array([None], dtype=object), uniques]))


def compact_codes(
    codes: np.ndarray, uniques: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the ``uniques`` no row of ``codes`` uses and renumber the rest.

    The dictionary of a row subset without a sort: one ``bincount`` marks
    the values present and a ``cumsum`` renumbers them in their sorted
    order, so codes cut from a column's :func:`factorize` compact to
    exactly ``factorize(subset)``.
    """
    present = np.bincount(codes, minlength=len(uniques)) > 0
    return (np.cumsum(present) - 1)[codes], uniques[present]


def factorize_multi(
    arrays: dict[str, np.ndarray], n_rows: int
) -> Factorization:
    """Factorize the combination of several key columns in one pass.

    Each column is encoded by :func:`factorize`; single-column group-by
    (SeeDB's common case) is that encoding. Multi-column keys are combined
    via mixed-radix codes then re-compacted (:func:`combine_codes`),
    avoiding materializing row tuples.
    """
    names = list(arrays)
    return combine_codes(
        [factorize(arrays[name]) for name in names],
        [arrays[name] for name in names],
        names,
        n_rows,
    )


def combine_codes(
    encoded: "list[tuple[np.ndarray, np.ndarray]]",
    arrays: "list[np.ndarray]",
    names: "list[str]",
    n_rows: int,
) -> Factorization:
    """Factorize a key set from each column's ``(codes, uniques)``.

    No key is ``GROUP BY ()``, a single global group; one key is its own
    encoding. Several keys' mixed-radix codes are compacted to the key
    combinations present, in sorted order; each group is keyed by its
    first row's raw values. While the radix product stays within a few
    times the row count the compaction is a ``bincount``
    (:func:`compact_codes`), not a sort.
    """
    if not encoded:
        return Factorization(
            codes=np.zeros(n_rows, dtype=np.int64), n_groups=1 if n_rows else 0, keys={}
        )
    if len(encoded) == 1:
        codes, uniques = encoded[0]
        return Factorization(codes=codes, n_groups=len(uniques), keys={names[0]: uniques})
    combined = encoded[0][0].astype(np.int64)
    radix = len(encoded[0][1])
    for codes, uniques in encoded[1:]:
        combined = combined * len(uniques) + codes
        radix *= len(uniques)
    if radix <= max(4 * n_rows, 1 << 16):
        group_codes, present = compact_codes(combined, np.arange(radix))
        first_index = np.empty(len(present), dtype=np.intp)
        # Reversed scatter: the last write per group is its first row.
        first_index[group_codes[::-1]] = np.arange(n_rows - 1, -1, -1)
    else:
        _, first_index, group_codes = np.unique(
            combined, return_index=True, return_inverse=True
        )
    keys = {name: array[first_index] for name, array in zip(names, arrays)}
    return Factorization(codes=group_codes, n_groups=len(first_index), keys=keys)


def aggregate_by_codes(
    factorization: Factorization,
    measure_arrays: dict[str, np.ndarray],
    aggregates: tuple[Aggregate, ...],
    nulls: "dict[str, np.ndarray | None] | None" = None,
) -> dict[str, np.ndarray]:
    """Final per-group values of each aggregate under ``factorization``,
    ``{alias: float64 array}``, from one pass per measure (:class:`Grouped`).
    ``nulls`` holds each measure's NULL rows as :meth:`Table.nulls` keeps
    them; without it they are found here."""
    rows = Grouped(factorization.codes, factorization.n_groups)
    grouped: dict[str | None, Grouped] = {None: rows}
    values_by_alias: dict[str, np.ndarray] = {}
    for aggregate in aggregates:
        column = aggregate.column
        if aggregate.alias in values_by_alias:
            raise QueryError(f"duplicate aggregate alias {aggregate.alias!r}")
        if column not in grouped:
            if column not in measure_arrays:
                raise QueryError(
                    f"aggregate {aggregate.alias!r} references missing column "
                    f"{column!r}"
                )
            values = measure_arrays[column]
            grouped[column] = rows.measure(
                values, nan_mask(values) if nulls is None else nulls[column]
            )
        # np.bincount yields int64 for empty inputs; results are FLOAT.
        values_by_alias[aggregate.alias] = np.asarray(
            AGGREGATE_FUNCTIONS[aggregate.func](grouped[column]), dtype=np.float64
        )
    return values_by_alias
