"""Property tests: ``factorize`` hashes string columns and answers as the sort did.

An object column whose values are all strings, ``None`` or float NaN is
encoded by hashing: one dict finds the distinct values and only those are
sorted. Every other object column, and an ID-like one (mostly distinct
over its first rows) whose strings are their own rendering, renders its
values with ``astype(str)`` and sorts the rendering. The reference below
is that render-and-sort encoder, applied to every object column, with the
one tested difference:
numpy's fixed-width ``U`` strings drop trailing ``'\\x00'``, so the render
merges ``'a'`` with ``'a\\x00'``, while hashing keeps them apart as Python
equality (and SQL) does. The reference splits such a merged group by the
rows' own values, in Python's order.
"""

from __future__ import annotations

import enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.db import groupby
from repro.db.aggregates import Aggregate
from repro.db.groupby import factorize
from repro.db.query import AggregateQuery
from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType


def rendered_factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group an object column on its values' string rendering, sorted as
    a fixed-width array; ``None`` and NaN rows form group 0, label None."""
    rendered, codes = np.unique(values.astype(str), return_inverse=True)
    uniques = rendered.astype(object)
    null = np.array(
        [value is None or (isinstance(value, float) and value != value) for value in values],
        dtype=bool,
    )
    if null.any():
        codes = codes + 1
        codes[null] = 0
        uniques = np.concatenate([np.array([None], dtype=object), uniques])
    present = np.bincount(codes, minlength=len(uniques)) > 0
    return (np.cumsum(present) - 1)[codes], uniques[present]


def hashes(values: np.ndarray) -> bool:
    return all(
        isinstance(value, str)
        or value is None
        or (isinstance(value, float) and value != value)
        for value in values
    )


def reference(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    codes, uniques = rendered_factorize(values)
    if not hashes(values):
        return codes, uniques
    keys = [
        (code, "" if uniques[code] is None else str.__str__(value))
        for code, value in zip(codes.tolist(), values)
    ]
    distinct = sorted(set(keys))
    index = {key: code for code, key in enumerate(distinct)}
    labels = [None if uniques[code] is None else text for code, text in distinct]
    return (
        np.array([index[key] for key in keys], dtype=np.intp),
        np.array(labels, dtype=object),
    )


def objects(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def assert_matches_reference(values: np.ndarray) -> None:
    codes, uniques = factorize(values)
    expected_codes, expected_uniques = reference(values)
    assert codes.dtype == np.intp
    assert codes.tolist() == expected_codes.tolist()
    assert uniques.dtype == object
    assert [(type(u), u) for u in uniques] == [(type(u), u) for u in expected_uniques]


texts = st.text(alphabet=st.sampled_from("ab\x00é"), max_size=3)
strings = st.one_of(
    texts, st.sampled_from(["None", "nan", "NaN", ""]), texts.map(np.str_)
)
nulls = st.sampled_from([None, float("nan"), np.float64("nan")])


@settings(max_examples=200, deadline=None)
@given(st.lists(strings, max_size=30))
def test_string_columns_match_the_reference(values):
    assert_matches_reference(objects(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(strings, nulls), max_size=30))
def test_nulls_mixed_into_strings_match_the_reference(values):
    assert_matches_reference(objects(values))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            strings,
            nulls,
            st.integers(-3, 3),
            st.floats(allow_nan=False, width=16),
            st.booleans(),
            # Unhashable, but each renders as a string.
            st.dictionaries(st.integers(0, 2), st.integers(0, 2), max_size=1),
            st.sets(st.integers(0, 2), max_size=2),
        ),
        min_size=1,
        max_size=30,
    ).filter(lambda values: not hashes(objects(values)))
)
def test_other_object_columns_take_the_render_path(values):
    array = objects(values)
    with mock.patch.object(
        groupby, "_factorize_rendered", wraps=groupby._factorize_rendered
    ) as rendered:
        assert_matches_reference(array)
    assert rendered.call_count == 1


@pytest.mark.parametrize(
    "values",
    [[], ["x"], [None], [float("nan")], [np.str_("x")], [1], [True], [2.5]],
)
def test_empty_and_one_row_columns(values):
    assert_matches_reference(objects(values))


def test_string_columns_are_not_sorted_row_by_row():
    values = objects(["b", "a", None, "None", float("nan"), "b"] * 50)
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        codes, uniques = factorize(values)
    assert unique.call_count == 0
    assert uniques.tolist() == [None, "None", "a", "b"]
    assert codes.tolist() == [3, 2, 0, 1, 0, 3] * 50


nul_free = st.text(alphabet=st.sampled_from("abé"), max_size=6)
ids = st.lists(nul_free.filter(len), min_size=16, max_size=64, unique=True)
nul_free_values = st.one_of(
    nul_free, nul_free.map(np.str_), st.sampled_from(["None", "nan", "NaN"]), nulls
)


@settings(max_examples=100, deadline=None)
@given(ids, st.lists(nul_free_values, max_size=8))
def test_id_like_columns_are_sorted_and_match_the_reference(distinct, tail):
    """Hashing a mostly distinct column would cost a dict entry and a
    Python sort step per row: its rendering is sorted instead, and answers
    as hashing would while every string renders as itself."""
    array = objects(distinct + tail)
    with mock.patch.object(
        groupby, "_factorize_rendered", wraps=groupby._factorize_rendered
    ) as rendered:
        assert_matches_reference(array)
    assert rendered.call_count == 1


@pytest.mark.parametrize("odd", ["a\x00", np.str_("a\x00"), "Color.RED"])
def test_id_like_columns_that_render_otherwise_are_hashed(odd):
    """A NUL the fixed width would drop, or a str subclass that renders as
    its ``__str__``, keeps an ID-like column on the hashing path."""
    values = [f"id{index}" for index in range(40)] + [
        "a",
        Color.RED if odd == "Color.RED" else odd,
        None,
    ]
    with mock.patch.object(
        groupby, "_factorize_rendered", wraps=groupby._factorize_rendered
    ) as rendered:
        codes, uniques = factorize(objects(values))
    assert rendered.call_count == 0
    texts = [None if value is None else str.__str__(value) for value in values]
    labels = [None] + sorted(set(texts) - {None})
    assert [(type(u), u) for u in uniques] == [(type(u), u) for u in labels]
    assert codes.tolist() == [labels.index(text) for text in texts]


def test_a_trailing_nul_is_its_own_value():
    """The render path merged ``'a'`` with ``'a\\x00'``; hashing keeps
    them apart, as the sqlite backend does."""
    values = objects(["a\x00", "a", "b", "a", "a\x00\x00"])
    assert rendered_factorize(values)[1].tolist() == ["a", "b"]
    codes, uniques = factorize(values)
    assert uniques.tolist() == ["a", "a\x00", "a\x00\x00", "b"]
    assert codes.tolist() == [1, 0, 3, 0, 2]

    table = Table(
        "t",
        Schema(
            (
                ColumnSpec("s", DataType.STR, AttributeRole.DIMENSION),
                ColumnSpec("v", DataType.FLOAT, AttributeRole.MEASURE),
            )
        ),
        {"s": values, "v": np.arange(5, dtype=np.float64)},
    )
    query = AggregateQuery("t", ("s",), (Aggregate("count"), Aggregate("sum", "v")))
    answers = []
    for backend in (MemoryBackend(), SqliteBackend()):
        try:
            backend.register_table(table)
            answer = backend.execute(query)
            assert backend.fetch_table("t").codes("s")[1].tolist() == uniques.tolist()
        finally:
            backend.close()
        answers.append(
            {name: answer.column(name).tolist() for name in answer.schema.names}
        )
    memory, sqlite = answers
    assert memory == sqlite
    assert memory["s"] == ["a", "a\x00", "a\x00\x00", "b"]
    assert list(memory.values())[1:] == [[2, 1, 1, 1], [4.0, 0.0, 4.0, 2.0]]


class Color(str, enum.Enum):
    RED = "red"


def test_a_str_subclass_groups_on_the_string_it_holds():
    """As sqlite stores it, whichever row comes first; the render path
    grouped ``Color.RED`` apart, on ``str(Color.RED)``."""
    for values in (["red", Color.RED, "blue"], [Color.RED, "red", "blue"]):
        codes, uniques = factorize(objects(values))
        assert codes.tolist() == [1, 1, 0]
        assert [(type(u), u) for u in uniques] == [(str, "blue"), (str, "red")]
