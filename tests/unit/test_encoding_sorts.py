"""Dimension columns are encoded once per registration, and the encodings are counted.

``factorize`` is the encoder behind ``Table.codes``. Wrapping it under
every name it is called by (:mod:`repro.db.table`, :mod:`repro.db.groupby`
itself, :mod:`repro.metadata.stats`) records every array encoded; a call
is charged to a column when it encoded that column's full-length values.
Measure columns are never encoded: only the dimensions carry statistics.
A string column is hashed, not sorted, so no ``np.unique`` runs over one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.db.groupby
import repro.db.table
import repro.metadata.stats
from repro import MemoryBackend, SeeDB, SeeDBConfig, col
from repro.api import RecommendationRequest
from repro.backends.sqlite import SqliteBackend
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.db.query import RowSelectQuery

TABLE = generate_synthetic(
    SyntheticConfig(n_rows=2000, n_dimensions=4, n_measures=2, cardinality=5),
    seed=3,
).table
DIMENSIONS = [spec.name for spec in TABLE.schema.dimensions]
MEASURES = [spec.name for spec in TABLE.schema.measures]


def recording(monkeypatch, owners: tuple, name: str) -> list:
    """Wrap ``name`` on each of ``owners`` so every array it is called with
    is recorded, in one list."""
    calls: list = []

    def recorder(wrapped):
        def record(values, *args, **kwargs):
            calls.append(np.asarray(values))
            return wrapped(values, *args, **kwargs)

        return record

    for owner in owners:
        monkeypatch.setattr(owner, name, recorder(getattr(owner, name)))
    return calls


@pytest.fixture
def encoded_arrays(monkeypatch) -> list:
    return recording(
        monkeypatch, (repro.db.table, repro.db.groupby, repro.metadata.stats), "factorize"
    )


@pytest.fixture
def sorted_arrays(monkeypatch) -> list:
    return recording(monkeypatch, (np,), "unique")


def calls_per_column(calls: list, names: list = DIMENSIONS) -> dict[str, int]:
    """How many recorded calls ran over each of the full columns ``names``."""
    return {
        name: sum(
            1
            for array in calls
            if array.shape == TABLE.column(name).shape
            and np.array_equal(array, TABLE.column(name))
        )
        for name in names
    }


def recommend(seedb, value: str) -> None:
    seedb.recommend(
        RecommendationRequest(RowSelectQuery(TABLE.name, col("d0") == value), k=3)
    )


@pytest.fixture(params=["memory", "sqlite"])
def seedb(request):
    backend = MemoryBackend() if request.param == "memory" else SqliteBackend()
    backend.register_table(TABLE)
    with SeeDB(backend, SeeDBConfig(k=3)) as session:
        yield session
    backend.close()


def test_cold_request_encodes_each_dimension_once(seedb, encoded_arrays):
    recommend(seedb, "d0=v0")
    assert calls_per_column(encoded_arrays) == {name: 1 for name in DIMENSIONS}


def test_cold_request_encodes_no_measure_column(seedb, encoded_arrays):
    recommend(seedb, "d0=v0")
    assert calls_per_column(encoded_arrays, MEASURES) == {name: 0 for name in MEASURES}


def test_cold_request_sorts_no_string_dimension(seedb, sorted_arrays):
    strings = [name for name in DIMENSIONS if TABLE.column(name).dtype == object]
    assert strings
    recommend(seedb, "d0=v0")
    rendered = [
        array.astype(object) if array.dtype.kind == "U" else array
        for array in sorted_arrays
    ]
    assert calls_per_column(rendered, strings) == {name: 0 for name in strings}


def test_next_request_with_a_new_predicate_encodes_nothing(seedb, encoded_arrays):
    recommend(seedb, "d0=v0")
    encoded_arrays.clear()
    recommend(seedb, "d0=v1")
    assert encoded_arrays == []


def test_registering_the_same_object_again_pays_again(seedb, encoded_arrays):
    recommend(seedb, "d0=v0")
    seedb.backend.register_table(TABLE, replace=True)
    encoded_arrays.clear()
    recommend(seedb, "d0=v1")
    assert calls_per_column(encoded_arrays) == {name: 1 for name in DIMENSIONS}


def test_a_registration_encodes_once_across_requests(seedb, encoded_arrays):
    for value in ("d0=v0", "d0=v1", "d0=v2"):
        recommend(seedb, value)
    assert calls_per_column(encoded_arrays) == {name: 1 for name in DIMENSIONS}
