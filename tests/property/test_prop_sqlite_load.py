"""Property tests: the sqlite column-wise load stores what the row-wise
encoding stored.

``SqliteBackend.register_table`` encodes a column at a time
(``_encoded_rows``). The reference below is the row-at-a-time encoder it
replaced, kept here as the oracle: for tables mixing every ``DataType``
with NULL, NaN, NaT and ``None`` — and object columns holding numpy
scalars, bools, dates and NaN — the encoded tuples and the rows sqlite
returns must be the same, value for value and type for type, however
the rows are cut into load batches.
"""

from datetime import date, datetime
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import sqlite as sqlite_backend
from repro.backends.sqlite import SqliteBackend, _encoded_rows
from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType


def reference_encode_row(row: tuple) -> tuple:
    """The row-at-a-time encoding the column-wise load replaced."""
    encoded = []
    for value in row:
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, np.datetime64):
            encoded.append(str(value))
        elif isinstance(value, (datetime, date)):
            encoded.append(value.isoformat()[:10])
        elif isinstance(value, bool):
            encoded.append(int(value))
        elif isinstance(value, float) and value != value:  # NaN -> NULL
            encoded.append(None)
        else:
            encoded.append(value)
    return tuple(encoded)


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.just(float("nan")),
    st.just(-0.0),
)
days = st.integers(-30_000, 30_000)
# What an object (STR) column may hold once built from arrays directly:
# text and None as usual, and every odd scalar the old encoder handled.
object_values = st.one_of(
    st.text(max_size=6),
    st.none(),
    st.just(float("nan")),
    floats,
    st.integers(-(2**62), 2**62),
    st.integers(-(2**62), 2**62).map(np.int64),
    floats.map(np.float64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(max_size=4).map(np.str_),
    days.map(lambda d: date.fromordinal(730_120 + d)),
    days.map(lambda d: datetime.fromordinal(730_120 + d)),
    days.map(lambda d: np.datetime64(d, "D")),
)


def object_array(values: list) -> np.ndarray:
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


@st.composite
def tables(draw):
    n = draw(st.integers(0, 25))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    date_unit = draw(st.sampled_from(["D", "s"]))
    dates = [
        np.datetime64("NaT") if d is None else np.datetime64(d, "D")
        for d in column(st.one_of(days, st.none()))
    ]
    arrays = {
        "i": (DataType.INT, np.array(column(st.integers(-(2**62), 2**62)), np.int64)),
        "f": (DataType.FLOAT, np.array(column(floats), np.float64)),
        "s": (DataType.STR, object_array(column(object_values))),
        "b": (DataType.BOOL, np.array(column(st.booleans()), np.bool_)),
        "d": (
            DataType.DATE,
            np.array(dates, "datetime64[D]").astype(f"datetime64[{date_unit}]"),
        ),
    }
    schema = Schema(
        tuple(
            ColumnSpec(name, dtype, AttributeRole.DIMENSION)
            for name, (dtype, _) in arrays.items()
        )
    )
    return Table("t", schema, {name: array for name, (_, array) in arrays.items()})


@settings(max_examples=150, deadline=None)
@given(tables(), st.integers(1, 30))
def test_column_wise_encoding_equals_row_wise(table, batch_rows):
    expected = [reference_encode_row(row) for row in table.iter_rows()]
    with mock.patch.object(sqlite_backend, "_LOAD_BATCH_ROWS", batch_rows):
        encoded = [repr(row) for row in _encoded_rows(table)]
    assert encoded == [repr(row) for row in expected]


@settings(max_examples=40, deadline=None)
@given(tables())
def test_stored_rows_equal_the_row_wise_encoding(table):
    backend = SqliteBackend()
    try:
        backend.register_table(table)
        with backend._lease() as connection:
            connection.execute("CREATE TABLE reference AS SELECT * FROM t WHERE 0")
            connection.executemany(
                "INSERT INTO reference VALUES (?, ?, ?, ?, ?)",
                [reference_encode_row(row) for row in table.iter_rows()],
            )
            stored = connection.execute("SELECT * FROM t ORDER BY rowid").fetchall()
            reference = connection.execute(
                "SELECT * FROM reference ORDER BY rowid"
            ).fetchall()
    finally:
        backend.close()
    assert [repr(row) for row in stored] == [repr(row) for row in reference]
