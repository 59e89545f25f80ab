"""Unit tests: aggregate reducers and merging."""

import numpy as np
import pytest

from repro.db.aggregates import Aggregate
from repro.db.groupby import Factorization, aggregate_by_codes
from repro.util.errors import QueryError

CODES = np.array([0, 0, 1, 1, 1, 2])
VALUES = np.array([1.0, 3.0, 2.0, 4.0, 6.0, 5.0])
N_GROUPS = 3


def finalize(func_name, values=VALUES, codes=CODES, n_groups=N_GROUPS):
    aggregate = Aggregate(func_name, None if func_name == "count" else "x")
    factorization = Factorization(codes, n_groups, {})
    return aggregate_by_codes(factorization, {"x": values}, (aggregate,))[aggregate.alias]


class TestBasicValues:
    def test_count_star(self):
        result = finalize("count", None)
        assert list(result) == [2, 3, 1]

    def test_sum(self):
        assert list(finalize("sum")) == [4.0, 12.0, 5.0]

    def test_avg(self):
        assert list(finalize("avg")) == [2.0, 4.0, 5.0]

    def test_min_max(self):
        assert list(finalize("min")) == [1.0, 2.0, 5.0]
        assert list(finalize("max")) == [3.0, 6.0, 5.0]

    def test_var(self):
        result = finalize("var")
        assert result[0] == pytest.approx(1.0)  # var of (1,3)
        assert result[2] == pytest.approx(0.0)

    def test_std_is_sqrt_var(self):
        assert finalize("std")[0] == pytest.approx(1.0)

    def test_countv_equals_count_without_nan(self):
        assert list(finalize("countv")) == [2, 3, 1]

    def test_sumsq(self):
        assert list(finalize("sumsq")) == [10.0, 56.0, 25.0]


class TestNaNHandling:
    """NaN behaves like SQL NULL: ignored by value aggregates."""

    NAN_VALUES = np.array([1.0, np.nan, np.nan, 4.0, 6.0, np.nan])

    def test_sum_skips_nan(self):
        assert list(finalize("sum", self.NAN_VALUES)) == [1.0, 10.0, 0.0]

    def test_count_star_includes_nan_rows(self):
        result = finalize("count", None)
        assert list(result) == [2, 3, 1]

    def test_countv_skips_nan(self):
        assert list(finalize("countv", self.NAN_VALUES)) == [1, 2, 0]

    def test_avg_of_all_nan_group_is_nan(self):
        result = finalize("avg", self.NAN_VALUES)
        assert result[0] == pytest.approx(1.0)
        assert result[1] == pytest.approx(5.0)
        assert np.isnan(result[2])

    def test_min_of_all_nan_group_is_nan(self):
        result = finalize("min", self.NAN_VALUES)
        assert result[0] == 1.0
        assert np.isnan(result[2])


class TestEmptyGroups:
    """Groups with no rows at all (minlength padding)."""

    def test_sum_empty_group_is_zero(self):
        result = finalize("sum", VALUES, CODES, n_groups=5)
        assert list(result[3:]) == [0.0, 0.0]

    def test_avg_empty_group_is_nan(self):
        result = finalize("avg", VALUES, CODES, n_groups=4)
        assert np.isnan(result[3])

    def test_max_empty_group_is_nan(self):
        result = finalize("max", VALUES, CODES, n_groups=4)
        assert np.isnan(result[3])


class TestMerging:
    """The fold of a view group's state (``optimizer.combine``), over an
    aggregate's mergeable decomposition, equals computing over the union of
    rows."""

    @pytest.mark.parametrize(
        "func", ["count", "sum", "avg", "min", "max", "var", "std", "countv", "sumsq"]
    )
    def test_merge_equals_union(self, func):
        from repro.model.view import ViewSpec
        from repro.optimizer.combine import GroupState
        from repro.optimizer.plan import ViewGroup

        measure = None if func == "count" else "x"
        state = GroupState(ViewGroup("d", (ViewSpec("d", measure, func),)), merged=True)
        positions = state.index([np.arange(N_GROUPS)])
        for values, codes in ((VALUES[:3], CODES[:3]), (VALUES[3:], CODES[3:])):
            rows = [
                finalize(aux.func, None if aux.func == "count" else values, codes)
                for aux in state.aggregates
            ]
            state.fold(0, positions, np.array(rows))
        expected = finalize(func, None if func == "count" else VALUES)
        np.testing.assert_allclose(
            state.block(merge=False).target[0], expected, equal_nan=True
        )


class TestAggregateDataclass:
    def test_default_alias(self):
        assert Aggregate("sum", "price").alias == "sum(price)"
        assert Aggregate("count").alias == "count(*)"

    def test_custom_alias(self):
        assert Aggregate("sum", "price", "total").alias == "total"

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError, match="unknown aggregate"):
            Aggregate("median", "price")

    def test_missing_column_rejected(self):
        with pytest.raises(QueryError, match="requires a column"):
            Aggregate("sum")

    def test_var_never_negative_under_cancellation(self):
        # Large offset + tiny variance: naive E[x^2]-E[x]^2 can go negative.
        values = np.full(100, 1e9) + np.linspace(0, 1e-3, 100)
        codes = np.zeros(100, dtype=np.int64)
        result = finalize("var", values, codes, 1)
        assert result[0] >= 0.0
