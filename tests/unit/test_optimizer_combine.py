"""Unit tests: aggregate decomposition and the merge of partials."""

import numpy as np
import pytest

from repro.db.aggregates import Aggregate
from repro.optimizer.combine import (
    Partial,
    dedup_aggregates,
    merge_partials,
    merge_spec,
)
from repro.util.errors import QueryError


class TestMergeSpec:
    def test_sum_passthrough(self):
        spec = merge_spec(Aggregate("sum", "x"))
        assert [a.alias for a in spec.aux] == ["sum(x)"]
        values = {"sum(x)": np.array([1.0, 2.0])}
        assert list(spec.reconstruct(values)) == [1.0, 2.0]

    def test_avg_decomposition(self):
        spec = merge_spec(Aggregate("avg", "x"))
        aliases = [a.alias for a in spec.aux]
        assert aliases == ["sum(x)", "countv(x)"]
        values = {
            "sum(x)": np.array([10.0, 0.0]),
            "countv(x)": np.array([4.0, 0.0]),
        }
        reconstructed = spec.reconstruct(values)
        assert reconstructed[0] == pytest.approx(2.5)
        assert np.isnan(reconstructed[1])  # empty group -> NaN like SQL AVG

    def test_var_decomposition(self):
        spec = merge_spec(Aggregate("var", "x"))
        aliases = {a.alias for a in spec.aux}
        assert aliases == {"sum(x)", "sumsq(x)", "countv(x)"}
        # values 1, 3 -> var 1.0
        values = {
            "sum(x)": np.array([4.0]),
            "sumsq(x)": np.array([10.0]),
            "countv(x)": np.array([2.0]),
        }
        assert spec.reconstruct(values)[0] == pytest.approx(1.0)

    def test_std_is_sqrt(self):
        spec = merge_spec(Aggregate("std", "x"))
        values = {
            "sum(x)": np.array([4.0]),
            "sumsq(x)": np.array([10.0]),
            "countv(x)": np.array([2.0]),
        }
        assert spec.reconstruct(values)[0] == pytest.approx(1.0)

    def test_var_cancellation_clamped(self):
        spec = merge_spec(Aggregate("var", "x"))
        values = {
            "sum(x)": np.array([2e9]),
            "sumsq(x)": np.array([2e18]),
            "countv(x)": np.array([2.0]),
        }
        assert spec.reconstruct(values)[0] >= 0.0

    def test_count_star(self):
        spec = merge_spec(Aggregate("count"))
        assert spec.aux[0].alias == "count(*)"


def partial(keys, *rows):
    return Partial(list(keys), np.array(rows, dtype=np.float64))


class TestMergeOperations:
    def test_additive_merge(self):
        aggregate = Aggregate("sum", "x")
        merged = merge_partials(
            partial("ab", [1.0, 2.0]), partial("ab", [10.0, 20.0]), (aggregate,)
        )
        assert merged.keys == ["a", "b"]
        assert merged.values.tolist() == [[11.0, 22.0]]

    def test_null_sum_is_the_identity(self):
        # SQL SUM over all-NULL rows is NULL (NaN): it must not erase the
        # other side's mass, and stays NaN only when both sides are NaN.
        aggregate = Aggregate("sum", "x")
        merged = merge_partials(
            partial("abc", [np.nan, 2.0, np.nan]),
            partial("abc", [1.0, np.nan, np.nan]),
            (aggregate,),
        )
        assert merged.values[0, :2].tolist() == [1.0, 2.0]
        assert np.isnan(merged.values[0, 2])

    def test_keys_align_on_their_union(self):
        # An absent key reads NaN, the identity of every operation.
        aggregates = (Aggregate("count"), Aggregate("max", "x"))
        merged = merge_partials(
            partial("ac", [1.0, 3.0], [5.0, 7.0]),
            partial("bc", [2.0, 4.0], [6.0, 9.0]),
            aggregates,
        )
        assert merged.keys == ["a", "b", "c"]
        assert merged.values.tolist() == [[1.0, 2.0, 7.0], [5.0, 6.0, 9.0]]

    def test_min_merge_ignores_nan_fill(self):
        aggregate = Aggregate("min", "x")
        merged = merge_partials(
            partial("ab", [np.nan, 5.0]), partial("ab", [3.0, np.nan]), (aggregate,)
        )
        assert merged.values.tolist() == [[3.0, 5.0]]

    def test_max_merge(self):
        aggregate = Aggregate("max", "x")
        merged = merge_partials(partial("a", [1.0]), partial("a", [9.0]), (aggregate,))
        assert merged.values[0, 0] == 9.0

    def test_non_mergeable_rejected(self):
        with pytest.raises(QueryError, match="not mergeable"):
            merge_partials(
                partial("a", [1.0]), partial("a", [1.0]), (Aggregate("avg", "x"),)
            )


class TestDedup:
    def test_shared_aux_deduped(self):
        # avg(x) and var(x) share sum(x) and countv(x).
        collected = []
        for func in ("avg", "var"):
            collected.extend(merge_spec(Aggregate(func, "x")).aux)
        unique = dedup_aggregates(collected)
        aliases = [a.alias for a in unique]
        assert aliases == ["sum(x)", "countv(x)", "sumsq(x)"]

    def test_order_preserved(self):
        aggregates = [Aggregate("sum", "b"), Aggregate("sum", "a"), Aggregate("sum", "b")]
        assert [a.alias for a in dedup_aggregates(aggregates)] == [
            "sum(b)",
            "sum(a)",
        ]
