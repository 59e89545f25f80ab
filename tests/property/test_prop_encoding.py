"""Property tests: dictionary-encoded dimensions answer exactly like raw ones.

A table encodes each dimension column once (``Table.codes``); a table cut
from it by ``mask``, ``take``, a ``RowPartition`` slice or ``head`` cuts
the codes with the same selector and compacts them. Every consumer must
then answer exactly as if it had factorized the raw values of the rows it
sees: the codes themselves, the engine's group-by tables, the collector's
Cramér's V, and the column statistics. Columns carry
the awkward values: ``None``, the string ``"None"`` (the same rendering),
NaN in an object column, NaN floats and NaT dates.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.aggregates import Aggregate
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.expressions import RowPartition, col
from repro.db.groupby import factorize, factorize_multi
from repro.db.query import AggregateQuery, FlagColumn, GroupingSetsQuery
from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType
from repro.metadata.collector import MetadataCollector
from repro.metadata.stats import ColumnStats, compute_column_stats, cramers_v
from repro.util.rng import derive_rng

DIMENSION = AttributeRole.DIMENSION
SCHEMA = Schema(
    (
        ColumnSpec("s", DataType.STR, DIMENSION),
        ColumnSpec("t", DataType.STR, DIMENSION),
        ColumnSpec("i", DataType.INT, DIMENSION),
        ColumnSpec("f", DataType.FLOAT, DIMENSION),
        ColumnSpec("d", DataType.DATE, DIMENSION),
        ColumnSpec("v", DataType.FLOAT, AttributeRole.MEASURE),
    )
)
DIMENSIONS = ("s", "t", "i", "f", "d")
OBJECT_VALUES = st.sampled_from(["a", "b", "None", None, float("nan"), "nan"])
DAYS = st.one_of(st.integers(16000, 16003), st.none())
AGGREGATES = (Aggregate("count"), Aggregate("sum", "v"), Aggregate("max", "v"))


def _objects(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def tables(draw) -> Table:
    n = draw(st.integers(0, 30))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    days = column(DAYS)
    return Table(
        "t",
        SCHEMA,
        {
            "s": _objects(column(OBJECT_VALUES)),
            "t": _objects(column(st.sampled_from(["x", "y", None]))),
            "i": np.array(column(st.integers(-2, 2)), dtype=np.int64),
            "f": np.array(
                column(st.sampled_from([0.5, -1.0, float("nan")])), dtype=np.float64
            ),
            "d": np.array(
                [np.datetime64("NaT") if day is None else day for day in days],
                dtype="datetime64[D]",
            ),
            "v": np.array(
                column(st.sampled_from([1.0, 2.5, -3.0, float("nan")])),
                dtype=np.float64,
            ),
        },
    )


@st.composite
def derived(draw, table: Table) -> Table:
    """``table`` cut by one to three random row selectors."""
    for _ in range(draw(st.integers(1, 3))):
        n = table.num_rows
        kind = draw(st.sampled_from(["mask", "take", "partition", "head"]))
        if kind == "mask":
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            table = table.mask(np.array(keep, dtype=bool))
        elif kind == "take":
            rows = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
            table = table.take(np.array(rows, dtype=np.intp))
        elif kind == "partition":
            of = draw(st.integers(1, 4))
            table = table.take(slice(draw(st.integers(0, of - 1)), None, of))
        else:
            table = table.head(draw(st.integers(0, n + 2)))
    return table


def raw_codes(table: Table, name: str):
    """What a table without dictionary codes does: sort its own rows."""
    return factorize(table.columns[name])


def assert_identical(got: np.ndarray, expected: np.ndarray) -> None:
    """Same dtype, same values bit for bit, same Python types inside."""
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    if expected.dtype == object:
        for got_item, expected_item in zip(got, expected):
            assert type(got_item) is type(expected_item)
            assert got_item is expected_item or got_item == expected_item or (
                got_item != got_item and expected_item != expected_item
            )
    elif expected.dtype.kind == "M":
        assert np.array_equal(np.isnat(got), np.isnat(expected))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    else:
        assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))


def assert_same_tables(got: Table, expected: Table) -> None:
    assert got.name == expected.name
    assert got.schema == expected.schema
    for name in expected.schema.names:
        assert_identical(got.column(name), expected.column(name))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cut_codes_equal_factorize_of_the_rows(data):
    table = data.draw(tables())
    subset = data.draw(derived(table))
    for name in DIMENSIONS:
        codes, uniques = subset.codes(name)
        expected_codes, expected_uniques = factorize(subset.column(name))
        assert np.issubdtype(codes.dtype, np.signedinteger)
        assert codes.tolist() == expected_codes.tolist()
        assert_identical(uniques, expected_uniques)


@settings(max_examples=100, deadline=None)
@given(table=tables())
def test_combined_keys_match_the_sorting_compaction(table):
    """Multi-column keys compact by bincount exactly as ``np.unique`` does:
    same codes, groups keyed by their first row's raw values."""
    names = ["s", "f", "d"]
    got = factorize_multi({name: table.column(name) for name in names}, len(table))
    combined = np.zeros(len(table), dtype=np.int64)
    for name in names:
        codes, uniques = factorize(table.column(name))
        combined = combined * len(uniques) + codes
    _, first_index, expected_codes = np.unique(
        combined, return_index=True, return_inverse=True
    )
    assert got.n_groups == len(first_index)
    assert got.codes.tolist() == expected_codes.tolist()
    for name in names:
        assert_identical(got.keys[name], table.column(name)[first_index])


def _queries(partition: "RowPartition | None"):
    predicate = col("i") >= 0
    if partition is not None:
        predicate = partition & predicate
    flag = FlagColumn("flag", col("f") > 0)
    for keys in (("s",), ("d",), ("s", flag), ("t", "i"), ("f", "s", "d")):
        yield AggregateQuery("t", keys, AGGREGATES, predicate)
    yield GroupingSetsQuery(
        "t", (("s", flag), ("i",), ("t", "d"), ()), AGGREGATES, predicate
    )


@settings(max_examples=100, deadline=None)
@given(table=tables(), partition=st.one_of(st.none(), st.sampled_from(
    [RowPartition(0, 1), RowPartition(0, 3), RowPartition(2, 3)]
)))
def test_engine_answers_match_with_and_without_codes(table, partition):
    catalog = Catalog()
    catalog.register(table)
    engine = Engine(catalog)
    for query in _queries(partition):
        encoded = engine.execute(query)
        with mock.patch.object(Table, "codes", raw_codes):
            raw = engine.execute(query)
        if isinstance(query, AggregateQuery):
            encoded, raw = [encoded], [raw]
        assert len(encoded) == len(raw)
        for got, expected in zip(encoded, raw):
            assert_same_tables(got, expected)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), sample_rows=st.sampled_from([5, 50_000]))
def test_collector_associations_equal_cramers_v(data, sample_rows):
    table = data.draw(derived(data.draw(tables())))
    metadata = MetadataCollector(association_sample_rows=sample_rows).collect(table)
    rows = table
    if table.num_rows > sample_rows:
        picked = derive_rng(0).choice(table.num_rows, size=sample_rows, replace=False)
        rows = table.take(np.sort(picked))
    for index, a in enumerate(DIMENSIONS):
        for b in DIMENSIONS[index + 1 :]:
            if {a, b} <= {"i", "f"}:  # numeric pairs use Pearson
                continue
            expected = cramers_v(rows.column(a), rows.column(b))
            assert abs(metadata.association(a, b) - expected) <= 1e-12


# -- the statistics as computed from raw values, one factorize per call ------


def _python(value):
    return value.item() if isinstance(value, np.generic) else value


def raw_column_stats(table: Table, name: str, top_k: int = 10) -> ColumnStats:
    spec = table.schema[name]
    values = table.column(name)
    null_count = int(np.isnan(values).sum()) if values.dtype.kind == "f" else 0
    valid = values[~np.isnan(values)] if values.dtype.kind == "f" else values
    if len(valid) == 0:
        return ColumnStats(
            name, spec.dtype, spec.role, len(values), 0, null_count, 0.0, 0.0
        )
    codes, uniques = factorize(valid)
    counts = np.bincount(codes, minlength=len(uniques)).astype(np.float64)
    probabilities = counts / counts.sum()
    nonzero = probabilities[probabilities > 0]
    numeric = {}
    if spec.dtype.is_numeric:
        as_float = valid.astype(np.float64)
        variance = float(np.var(as_float))
        numeric = dict(
            min_value=float(as_float.min()),
            max_value=float(as_float.max()),
            mean=float(as_float.mean()),
        )
    else:
        variance = float(np.var(probabilities))
    order = np.argsort(counts)[::-1][:top_k]
    return ColumnStats(
        name=name,
        dtype=spec.dtype,
        role=spec.role,
        n_rows=len(values),
        n_distinct=len(uniques),
        null_count=null_count,
        variance=variance,
        entropy=float(-(nonzero * np.log2(nonzero)).sum()),
        top_values=tuple((_python(uniques[i]), int(counts[i])) for i in order),
        **numeric,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_stats_match_the_raw_computation(data):
    table = data.draw(tables())
    if data.draw(st.booleans()):
        table = data.draw(derived(table))
    for name in SCHEMA.names:
        assert repr(compute_column_stats(table, name)) == repr(
            raw_column_stats(table, name)
        )
