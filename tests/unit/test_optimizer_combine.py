"""Unit tests: aggregate decomposition and the fold of a group's state."""

import numpy as np
import pytest

from repro.db.aggregates import Aggregate
from repro.model.view import ViewSpec
from repro.optimizer.combine import GroupState, dedup_aggregates, merge_spec
from repro.optimizer.plan import ViewGroup
from repro.util.errors import QueryError


def rebuild(spec, values):
    """``spec.reconstruct`` over named auxiliary arrays."""
    return spec.reconstruct(*(values[aux.alias] for aux in spec.aux))


class TestMergeSpec:
    def test_sum_passthrough(self):
        spec = merge_spec(Aggregate("sum", "x"))
        assert [a.alias for a in spec.aux] == ["sum(x)"]
        values = {"sum(x)": np.array([1.0, 2.0])}
        assert list(rebuild(spec, values)) == [1.0, 2.0]

    def test_avg_decomposition(self):
        spec = merge_spec(Aggregate("avg", "x"))
        aliases = [a.alias for a in spec.aux]
        assert aliases == ["sum(x)", "countv(x)"]
        values = {
            "sum(x)": np.array([10.0, 0.0]),
            "countv(x)": np.array([4.0, 0.0]),
        }
        reconstructed = rebuild(spec, values)
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
        assert rebuild(spec, values)[0] == pytest.approx(1.0)

    def test_std_is_sqrt(self):
        spec = merge_spec(Aggregate("std", "x"))
        values = {
            "sum(x)": np.array([4.0]),
            "sumsq(x)": np.array([10.0]),
            "countv(x)": np.array([2.0]),
        }
        assert rebuild(spec, values)[0] == pytest.approx(1.0)

    def test_var_cancellation_clamped(self):
        spec = merge_spec(Aggregate("var", "x"))
        values = {
            "sum(x)": np.array([2e9]),
            "sumsq(x)": np.array([2e18]),
            "countv(x)": np.array([2.0]),
        }
        assert rebuild(spec, values)[0] >= 0.0

    def test_count_star(self):
        spec = merge_spec(Aggregate("count"))
        assert spec.aux[0].alias == "count(*)"


def fold_state(aggregates, *partials, merged=True):
    """A one-group state with every ``(keys, rows)`` partial folded into
    its target side; returns ``(sorted keys, values)`` of that side."""
    views = tuple(ViewSpec("d", a.column, a.func) for a in aggregates)
    state = GroupState(ViewGroup("d", views), merged)
    for keys, rows in partials:
        positions = state.index([np.array(list(keys), dtype=object)])
        state.fold(0, positions, np.array(rows, dtype=np.float64))
    order = sorted(range(len(state.keys)), key=lambda i: state.keys[i])
    return [state.keys[i] for i in order], state.values[0][:, order]


class TestMergeOperations:
    """Folding partials of disjoint row sets into one side of the state."""

    def test_additive_merge(self):
        aggregate = Aggregate("sum", "x")
        keys, values = fold_state(
            (aggregate,), ("ab", [[1.0, 2.0]]), ("ab", [[10.0, 20.0]])
        )
        assert keys == ["a", "b"]
        assert values.tolist() == [[11.0, 22.0]]

    def test_null_sum_is_the_identity(self):
        # SQL SUM over all-NULL rows is NULL (NaN): it must not erase the
        # other side's mass, and stays NaN only when both sides are NaN.
        aggregate = Aggregate("sum", "x")
        _, values = fold_state(
            (aggregate,),
            ("abc", [[np.nan, 2.0, np.nan]]),
            ("abc", [[1.0, np.nan, np.nan]]),
        )
        assert values[0, :2].tolist() == [1.0, 2.0]
        assert np.isnan(values[0, 2])

    def test_keys_align_on_their_union(self):
        # An absent key reads NaN, the identity of every operation.
        aggregates = (Aggregate("count"), Aggregate("max", "x"))
        keys, values = fold_state(
            aggregates,
            ("ac", [[1.0, 3.0], [5.0, 7.0]]),
            ("bc", [[2.0, 4.0], [6.0, 9.0]]),
        )
        assert keys == ["a", "b", "c"]
        assert values.tolist() == [[1.0, 2.0, 7.0], [5.0, 6.0, 9.0]]

    def test_min_merge_ignores_nan_fill(self):
        aggregate = Aggregate("min", "x")
        _, values = fold_state(
            (aggregate,), ("ab", [[np.nan, 5.0]]), ("ab", [[3.0, np.nan]])
        )
        assert values.tolist() == [[3.0, 5.0]]

    def test_max_merge(self):
        aggregate = Aggregate("max", "x")
        _, values = fold_state((aggregate,), ("a", [[1.0]]), ("a", [[9.0]]))
        assert values[0, 0] == 9.0

    def test_non_mergeable_rejected(self):
        with pytest.raises(QueryError, match="not mergeable"):
            fold_state(
                (Aggregate("avg", "x"),), ("a", [[1.0]]), ("a", [[1.0]]), merged=False
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
