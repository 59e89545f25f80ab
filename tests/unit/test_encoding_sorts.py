"""Dimension columns are sorted once per registration, and the sorts are counted.

``np.unique`` is the sort behind ``factorize``. Wrapping it records every
array sorted; a call is charged to a column when it sorted that column's
full-length values (their string rendering for an object column, which
is what ``factorize`` sorts). Measure columns are never sorted: only the
dimensions carry statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

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


@pytest.fixture
def sorted_arrays(monkeypatch) -> list:
    calls: list = []
    unique = np.unique

    def counting_unique(values, *args, **kwargs):
        calls.append(np.asarray(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    return calls


def sorts_per_column(calls: list, names: list = DIMENSIONS) -> dict[str, int]:
    """How many recorded sorts ran over each of the full columns ``names``."""
    counts = {}
    for name in names:
        values = TABLE.column(name)
        rendered = values.astype(str) if values.dtype == object else values
        counts[name] = sum(
            1
            for array in calls
            if array.shape == rendered.shape and np.array_equal(array, rendered)
        )
    return counts


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


def test_cold_request_sorts_each_dimension_once(seedb, sorted_arrays):
    recommend(seedb, "d0=v0")
    assert sorts_per_column(sorted_arrays) == {name: 1 for name in DIMENSIONS}


def test_cold_request_sorts_no_measure_column(seedb, sorted_arrays):
    recommend(seedb, "d0=v0")
    assert sorts_per_column(sorted_arrays, MEASURES) == {name: 0 for name in MEASURES}


def test_next_request_with_a_new_predicate_sorts_nothing(seedb, sorted_arrays):
    recommend(seedb, "d0=v0")
    sorted_arrays.clear()
    recommend(seedb, "d0=v1")
    assert sorted_arrays == []


def test_registering_the_same_object_again_pays_again(seedb, sorted_arrays):
    recommend(seedb, "d0=v0")
    seedb.backend.register_table(TABLE, replace=True)
    sorted_arrays.clear()
    recommend(seedb, "d0=v1")
    assert sorts_per_column(sorted_arrays) == {name: 1 for name in DIMENSIONS}


def test_a_registration_encodes_once_across_requests(seedb, sorted_arrays):
    for value in ("d0=v0", "d0=v1", "d0=v2"):
        recommend(seedb, value)
    assert sorts_per_column(sorted_arrays) == {name: 1 for name in DIMENSIONS}
