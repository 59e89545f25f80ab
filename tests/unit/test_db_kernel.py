"""The memory group-by kernel: one pass per measure, the same bytes as one
pass per aggregate, and NULL masks that live as long as the table.

``ORACLE`` is the per-aggregate kernel this one replaced: each aggregate
found its measure's non-NULL rows and counted them again. Every aggregate of
``aggregate_by_codes`` must equal its formula by ``tobytes()`` — the
shared passes sum in the same row order, so no float may move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.recommender import SeeDB
from repro.db import table as table_module
from repro.db.aggregates import AGGREGATE_FUNCTIONS, Aggregate, nan_mask
from repro.db.expressions import col
from repro.db.groupby import Factorization, aggregate_by_codes
from repro.db.query import RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole


def _valid(values, codes):
    if values.dtype.kind == "f":
        mask = ~np.isnan(values)
        return values[mask].astype(np.float64), codes[mask]
    return values.astype(np.float64), codes


def _count(values, codes, n_groups):
    return np.bincount(codes, minlength=n_groups).astype(np.float64)


def _countv(values, codes, n_groups):
    if values.dtype.kind == "f":
        codes = codes[~np.isnan(values)]
    return _count(None, codes, n_groups)


def _sum(values, codes, n_groups):
    values, codes = _valid(values, codes)
    return np.bincount(codes, weights=values, minlength=n_groups)


def _sumsq(values, codes, n_groups):
    values, codes = _valid(values, codes)
    return np.bincount(codes, weights=values**2, minlength=n_groups)


def _avg(values, codes, n_groups):
    values, codes = _valid(values, codes)
    sums = np.bincount(codes, weights=values, minlength=n_groups)
    counts = _count(None, codes, n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        result = sums / counts
    return np.where(counts > 0, result, np.nan)


def _extremum(ufunc, init):
    def reduce(values, codes, n_groups):
        values, codes = _valid(values, codes)
        out = np.full(n_groups, init, dtype=np.float64)
        ufunc.at(out, codes, values)
        return np.where(_count(None, codes, n_groups) > 0, out, np.nan)

    return reduce


def _var(values, codes, n_groups):
    values, codes = _valid(values, codes)
    sums = np.bincount(codes, weights=values, minlength=n_groups)
    sumsq = np.bincount(codes, weights=values**2, minlength=n_groups)
    counts = _count(None, codes, n_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        variance = sumsq / counts - mean**2
    variance = np.maximum(variance, 0.0)
    return np.where(counts > 0, variance, np.nan)


ORACLE = {
    "count": _count,
    "sum": _sum,
    "avg": _avg,
    "min": _extremum(np.minimum, np.inf),
    "max": _extremum(np.maximum, -np.inf),
    "var": _var,
    "std": lambda values, codes, n_groups: np.sqrt(_var(values, codes, n_groups)),
    "countv": _countv,
    "sumsq": _sumsq,
}


def random_case(rng):
    """Codes and three measures: float, float with NaN (some groups all
    NaN), and int; with empty groups, zero rows and zero groups drawn."""
    n_groups = int(rng.integers(0, 7))
    n = 0 if n_groups == 0 else int(rng.integers(0, 60))
    codes = rng.integers(0, max(n_groups, 1), n).astype(rng.choice([np.int8, np.int64]))
    scale = 10.0 ** rng.integers(-3, 10)
    plain = np.round(rng.normal(size=n) * scale, 4)
    holes = rng.normal(size=n)
    holes[(rng.random(n) < 0.3) | (codes == 0)] = np.nan
    integers = rng.integers(-(10**6), 10**6, n)
    measures = {"plain": plain, "holes": holes, "integers": integers}
    return Factorization(codes, n_groups, {}), measures


@pytest.mark.parametrize("seed", range(40))
def test_kernel_bytes_equal_the_per_aggregate_formulas(seed):
    factorization, measures = random_case(np.random.default_rng(seed))
    aggregates = (Aggregate("count"),) + tuple(
        Aggregate(func, name)
        for name in measures
        for func in AGGREGATE_FUNCTIONS
        if func != "count"
    )
    got = aggregate_by_codes(factorization, measures, aggregates)
    for aggregate in aggregates:
        values = None if aggregate.column is None else measures[aggregate.column]
        expected = np.asarray(
            ORACLE[aggregate.func](values, factorization.codes, factorization.n_groups),
            dtype=np.float64,
        )
        assert got[aggregate.alias].dtype == np.float64, aggregate
        assert got[aggregate.alias].tobytes() == expected.tobytes(), aggregate


def test_nulls_given_equal_nulls_found():
    factorization, measures = random_case(np.random.default_rng(7))
    aggregates = tuple(Aggregate("avg", name) for name in measures)
    nulls = {name: nan_mask(values) for name, values in measures.items()}
    given = aggregate_by_codes(factorization, measures, aggregates, nulls)
    found = aggregate_by_codes(factorization, measures, aggregates)
    assert {k: v.tobytes() for k, v in given.items()} == {
        k: v.tobytes() for k, v in found.items()
    }


def nan_table(name: str = "t", seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    n = 200
    holes = rng.uniform(0.0, 10.0, n)
    holes[rng.random(n) < 0.2] = np.nan
    return Table.from_columns(
        name,
        {
            "d": list(np.array(["a", "b", "c"])[rng.integers(0, 3, n)]),
            "e": list(np.array(["x", "y"])[rng.integers(0, 2, n)]),
            "holes": holes.tolist(),
            "plain": rng.uniform(0.0, 10.0, n).tolist(),
            "whole": rng.integers(0, 100, n).tolist(),
        },
        roles={
            "d": AttributeRole.DIMENSION,
            "e": AttributeRole.DIMENSION,
            "holes": AttributeRole.MEASURE,
            "plain": AttributeRole.MEASURE,
            "whole": AttributeRole.MEASURE,
        },
    )


@pytest.fixture
def found(monkeypatch):
    """The arrays ``Table`` searched for NULLs, in call order."""
    calls = []

    def counting(values):
        calls.append(values)
        return nan_mask(values)

    monkeypatch.setattr(table_module, "nan_mask", counting)
    return calls


class TestNullMaskLifetime:
    def test_kept_per_table_with_a_no_nan_marker(self, found):
        table = nan_table()
        np.testing.assert_array_equal(
            table.nulls("holes"), np.isnan(table.column("holes"))
        )
        assert table.nulls("plain") is None
        assert table.nulls("whole") is None
        assert table.nulls("d") is None
        for _ in range(3):
            table.nulls("holes")
            table.nulls("plain")
        assert len(found) == 2  # once per float column, never for an int one

    def test_registered_table_finds_each_mask_once_across_requests(self, found):
        backend = MemoryBackend()
        backend.register_table(nan_table())
        engine = SeeDB(backend)

        def request(value):
            return RecommendationRequest(RowSelectQuery("t", col("d") == value), k=2)

        engine.recommend(request("a"))
        assert len(found) == 2  # holes and plain: the table's two float measures
        engine.recommend(request("b"))
        assert len(found) == 2  # the second request reused them
        backend.close()

    @pytest.mark.parametrize(
        "cut",
        [
            lambda t: t.mask(np.arange(t.num_rows) % 3 != 0),
            lambda t: t.take(np.array([5, 1, 1, 7, 0])),
            lambda t: t.take(slice(1, None, 3)),
            lambda t: t.head(17),
        ],
    )
    def test_derived_table_cuts_its_parents_mask(self, found, cut):
        table = nan_table()
        table.nulls("holes")
        child = cut(table)
        expected = np.isnan(child.column("holes"))
        got = child.nulls("holes")
        if expected.any():
            np.testing.assert_array_equal(got, expected)
        else:
            assert got is None
        assert child.nulls("plain") is None
        assert len(found) == 2  # the parent's two float columns; no search

    def test_replaced_registration_gets_a_fresh_mask(self):
        backend = MemoryBackend()
        backend.register_table(nan_table(seed=1))
        before = backend.fetch_table("t").nulls("holes")
        replacement = nan_table(seed=2)
        backend.register_table(replacement, replace=True)
        after = backend.fetch_table("t").nulls("holes")
        np.testing.assert_array_equal(after, np.isnan(replacement.column("holes")))
        assert not np.array_equal(before, after)
        backend.close()

