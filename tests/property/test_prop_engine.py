"""Property tests: the engine agrees with brute-force Python aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.aggregates import Aggregate
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.expressions import col
from repro.db.query import (
    AggregateQuery,
    FlagColumn,
    GroupingSetsQuery,
    grouping_key_name,
)
from repro.db.table import Table
from repro.db.types import AttributeRole


@st.composite
def random_tables(draw):
    n_rows = draw(st.integers(1, 60))
    keys = draw(
        st.lists(
            st.sampled_from(["a", "b", "c", "d"]),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    second = draw(
        st.lists(st.sampled_from(["x", "y"]), min_size=n_rows, max_size=n_rows)
    )
    values = draw(
        st.lists(
            st.one_of(
                st.floats(-1000, 1000, allow_nan=False, allow_infinity=False),
                st.just(float("nan")),
            ),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return Table.from_columns(
        "t",
        {"k": keys, "j": second, "v": values},
        roles={
            "k": AttributeRole.DIMENSION,
            "j": AttributeRole.DIMENSION,
            "v": AttributeRole.MEASURE,
        },
    )


ALL_FUNCS = ("count", "sum", "avg", "min", "max", "var", "std", "countv", "sumsq")


def aggregate_of(func):
    return Aggregate(func) if func == "count" else Aggregate(func, "v")


def reduce_group(func, values):
    """One group's aggregate in plain Python (NaN = NULL)."""
    valid = [v for v in values if not math.isnan(v)]
    if func == "count":
        return float(len(values))
    if func == "countv":
        return float(len(valid))
    if func == "sum":
        return float(sum(valid))
    if func == "sumsq":
        return float(sum(v * v for v in valid))
    if not valid:
        return float("nan")
    if func == "avg":
        return sum(valid) / len(valid)
    if func == "min":
        return min(valid)
    if func == "max":
        return max(valid)
    mean = sum(valid) / len(valid)
    variance = sum((v - mean) ** 2 for v in valid) / len(valid)
    return variance if func == "var" else math.sqrt(variance)


def brute_force(table, func, keys=("k",)):
    """Reference group-by via plain Python dicts: ``{group: value}``, a
    group being the ``str`` of each key's value (a flag's is "0"/"1")."""
    columns = [
        key.predicate.evaluate(table).astype(int)
        if isinstance(key, FlagColumn)
        else table.column(key)
        for key in keys
    ]
    groups = {}
    for row, value in enumerate(table.column("v")):
        group = tuple(str(column[row]) for column in columns)
        groups.setdefault(group, []).append(float(value))
    return {group: reduce_group(func, values) for group, values in groups.items()}


def assert_matches_brute_force(result, table, func, keys=("k",)):
    expected = brute_force(table, func, keys)
    assert result.num_rows == len(expected)
    names = [grouping_key_name(key) for key in keys]
    values = result.column(aggregate_of(func).alias)
    for row, value in enumerate(values):
        reference = expected[tuple(str(result.column(name)[row]) for name in names)]
        if math.isnan(reference):
            assert math.isnan(value)
        elif func == "std":
            # sqrt magnifies the one-pass variance's cancellation error.
            assert value**2 == pytest.approx(reference**2, rel=1e-9, abs=1e-6)
        else:
            # Only var's one-pass formula cancels where the two-pass oracle
            # does not; every other aggregate adds in the oracle's order.
            tol = 1e-6 if func == "var" else 1e-9
            assert value == pytest.approx(reference, rel=1e-9, abs=tol)


def engine_over(table):
    catalog = Catalog()
    catalog.register(table)
    return Engine(catalog)


# 75 examples over nine functions keep the ~8 per function that 50 gave six.
@settings(max_examples=75, deadline=None)
@given(table=random_tables(), func=st.sampled_from(ALL_FUNCS))
def test_groupby_matches_brute_force(table, func):
    engine = engine_over(table)
    result = engine.execute(AggregateQuery("t", ("k",), (aggregate_of(func),)))
    assert_matches_brute_force(result, table, func)


@settings(max_examples=40, deadline=None)
@given(table=random_tables())
def test_grouping_sets_with_flag_and_empty_sets(table):
    """A flag key, a two-key set and the empty set in one shared scan:
    each set equals its own group-by and the brute-force answer."""
    engine = engine_over(table)
    flag = FlagColumn("f", col("j") == "x")
    query = GroupingSetsQuery(
        "t", ((flag, "k"), ("k", "j"), ()), tuple(aggregate_of(f) for f in ALL_FUNCS)
    )
    shared = engine.execute_grouping_sets(query)
    for single, result in zip(query.as_single_queries(), shared):
        alone = engine.execute_aggregate(single)
        assert result.schema == alone.schema
        for name in result.schema.names:
            np.testing.assert_array_equal(result.column(name), alone.column(name))
        for func in ALL_FUNCS:
            assert_matches_brute_force(result, table, func, single.group_by)


@settings(max_examples=40, deadline=None)
@given(table=random_tables())
def test_grouping_sets_equal_independent_queries(table):
    catalog = Catalog()
    catalog.register(table)
    engine = Engine(catalog)
    query = GroupingSetsQuery(
        "t",
        (("k",), ("j",), ("k", "j")),
        (Aggregate("sum", "v"), Aggregate("count")),
    )
    shared = engine.execute_grouping_sets(query)
    for single, shared_result in zip(query.as_single_queries(), shared):
        independent = engine.execute(single)
        assert independent.num_rows == shared_result.num_rows
        for column in independent.schema.names:
            a = independent.column(column)
            b = shared_result.column(column)
            if a.dtype.kind == "f":
                np.testing.assert_allclose(a, b, equal_nan=True)
            else:
                assert list(a) == list(b)


@settings(max_examples=40, deadline=None)
@given(table=random_tables())
def test_flag_partitions_cover_table(table):
    """flag=1 rows + flag=0 rows must account for every row exactly once."""
    catalog = Catalog()
    catalog.register(table)
    engine = Engine(catalog)
    flag = FlagColumn("f", col("j") == "x")
    result = engine.execute(
        AggregateQuery("t", (flag, "k"), (Aggregate("count"),))
    )
    assert float(np.sum(result.column("count(*)"))) == table.num_rows


@settings(max_examples=40, deadline=None)
@given(table=random_tables())
def test_filter_then_group_consistent(table):
    """Predicate + group-by == group-by over a pre-filtered table."""
    catalog = Catalog()
    catalog.register(table)
    engine = Engine(catalog)
    predicate = col("j") == "x"
    direct = engine.execute(
        AggregateQuery("t", ("k",), (Aggregate("count"),), predicate)
    )
    mask = predicate.evaluate(table)
    filtered = table.mask(mask, name="t2")
    catalog.register(filtered)
    indirect = engine.execute(AggregateQuery("t2", ("k",), (Aggregate("count"),)))
    assert direct.to_rows() == indirect.to_rows()
