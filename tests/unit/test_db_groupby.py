"""Unit tests: factorization and grouped aggregation."""

import numpy as np
import pytest

from repro.db.aggregates import Aggregate
from repro.db.groupby import aggregate_by_codes, factorize, factorize_multi
from repro.util.errors import QueryError


class TestFactorize:
    def test_strings_sorted_order(self):
        codes, uniques = factorize(np.array(["b", "a", "b", "c"], dtype=object))
        assert list(uniques) == ["a", "b", "c"]
        assert list(codes) == [1, 0, 1, 2]

    def test_null_key_keeps_its_object(self):
        """A NULL is labelled None, as under a multi-key group-by — not 'None'."""
        values = np.array(["b", None, "a", None, "b"], dtype=object)
        codes, uniques = factorize(values)
        assert list(uniques) == [None, "a", "b"]
        assert list(codes) == [2, 0, 1, 0, 2]
        multi = factorize_multi(
            {"d": values, "e": np.array(["x"] * 5, dtype=object)}, 5
        )
        assert list(multi.keys["d"]) == list(uniques)

    def test_ints(self):
        codes, uniques = factorize(np.array([30, 10, 30]))
        assert list(uniques) == [10, 30]
        assert list(codes) == [1, 0, 1]

    def test_dates(self):
        values = np.array(["2024-02-01", "2024-01-01"], dtype="datetime64[D]")
        codes, uniques = factorize(values)
        assert codes[0] == 1 and codes[1] == 0

    def test_empty(self):
        codes, uniques = factorize(np.array([], dtype=np.int64))
        assert len(codes) == 0 and len(uniques) == 0


class TestFactorizeMulti:
    def test_single_column_shortcut(self):
        fact = factorize_multi({"k": np.array(["a", "b", "a"], dtype=object)}, 3)
        assert fact.n_groups == 2
        assert list(fact.keys["k"]) == ["a", "b"]

    def test_two_columns(self):
        fact = factorize_multi(
            {
                "x": np.array(["a", "a", "b", "b"], dtype=object),
                "y": np.array([1, 2, 1, 1]),
            },
            4,
        )
        assert fact.n_groups == 3  # (a,1), (a,2), (b,1)
        # Group keys stay aligned with codes.
        for row in range(4):
            group = fact.codes[row]
            assert fact.keys["x"][group] in ("a", "b")

    def test_empty_key_set_single_group(self):
        fact = factorize_multi({}, 5)
        assert fact.n_groups == 1
        assert list(fact.codes) == [0] * 5

    def test_empty_key_set_empty_table(self):
        fact = factorize_multi({}, 0)
        assert fact.n_groups == 0

    def test_combination_only_existing_pairs(self):
        # Cross product would be 4; only 2 combinations exist.
        fact = factorize_multi(
            {
                "x": np.array(["a", "b"], dtype=object),
                "y": np.array(["p", "q"], dtype=object),
            },
            2,
        )
        assert fact.n_groups == 2


class TestAggregateByCodes:
    def test_basic_flow(self):
        fact = factorize_multi({"k": np.array(["a", "b", "a"], dtype=object)}, 3)
        aggregates = (Aggregate("sum", "v"), Aggregate("count"))
        final = aggregate_by_codes(fact, {"v": np.array([1.0, 2.0, 3.0])}, aggregates)
        assert list(final["sum(v)"]) == [4.0, 2.0]
        assert list(final["count(*)"]) == [2.0, 1.0]

    def test_missing_measure_column_rejected(self):
        fact = factorize_multi({"k": np.array(["a"], dtype=object)}, 1)
        with pytest.raises(QueryError, match="missing column"):
            aggregate_by_codes(fact, {}, (Aggregate("sum", "v"),))

    def test_duplicate_alias_rejected(self):
        fact = factorize_multi({"k": np.array(["a"], dtype=object)}, 1)
        aggregates = (Aggregate("sum", "v", "x"), Aggregate("avg", "v", "x"))
        with pytest.raises(QueryError, match="duplicate"):
            aggregate_by_codes(fact, {"v": np.array([1.0])}, aggregates)
