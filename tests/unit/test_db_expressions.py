"""Unit tests: predicate AST evaluation and the fluent builder."""

from datetime import date

import numpy as np
import pytest

from repro.db.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    In,
    Literal,
    Not,
    Or,
    RowPartition,
    TruePredicate,
    col,
    split_partition,
)
from repro.db.table import Table
from repro.util.errors import QueryError


@pytest.fixture
def table():
    return Table.from_columns(
        "t",
        {
            "name": ["ann", "bob", "cid", "dee"],
            "age": [30, 25, 40, 25],
            "joined": [
                date(2024, 1, 1),
                date(2024, 6, 1),
                date(2023, 1, 1),
                date(2024, 3, 15),
            ],
        },
    )


def names(table, mask):
    return [str(v) for v in table.column("name")[mask]]


class TestComparisons:
    def test_equality(self, table):
        mask = (col("age") == 25).evaluate(table)
        assert names(table, mask) == ["bob", "dee"]

    def test_inequality(self, table):
        mask = (col("age") != 25).evaluate(table)
        assert names(table, mask) == ["ann", "cid"]

    def test_ordering_operators(self, table):
        assert names(table, (col("age") > 30).evaluate(table)) == ["cid"]
        assert names(table, (col("age") >= 30).evaluate(table)) == ["ann", "cid"]
        assert names(table, (col("age") < 30).evaluate(table)) == ["bob", "dee"]
        assert names(table, (col("age") <= 25).evaluate(table)) == ["bob", "dee"]

    def test_date_comparison_with_python_date(self, table):
        mask = (col("joined") >= date(2024, 3, 1)).evaluate(table)
        assert names(table, mask) == ["bob", "dee"]

    def test_invalid_operator_rejected(self):
        with pytest.raises(QueryError, match="operator"):
            Comparison("~", ColumnRef("age"), Literal(1))

    def test_incomparable_types_raise_query_error(self, table):
        with pytest.raises(QueryError, match="compare"):
            (col("age") > "not a number").evaluate(table)


class TestSetAndRange:
    def test_in(self, table):
        mask = col("name").isin(["ann", "dee", "zzz"]).evaluate(table)
        assert names(table, mask) == ["ann", "dee"]

    def test_in_empty_matches_nothing(self, table):
        mask = In(ColumnRef("name"), ()).evaluate(table)
        assert not mask.any()

    def test_between_inclusive(self, table):
        mask = col("age").between(25, 30).evaluate(table)
        assert names(table, mask) == ["ann", "bob", "dee"]


class TestBooleanCombinators:
    def test_and(self, table):
        predicate = (col("age") == 25) & (col("name") == "dee")
        assert names(table, predicate.evaluate(table)) == ["dee"]

    def test_or(self, table):
        predicate = (col("name") == "ann") | (col("name") == "cid")
        assert names(table, predicate.evaluate(table)) == ["ann", "cid"]

    def test_not(self, table):
        predicate = ~(col("age") == 25)
        assert names(table, predicate.evaluate(table)) == ["ann", "cid"]

    def test_true_predicate(self, table):
        assert TruePredicate().evaluate(table).all()

    def test_and_requires_two_operands(self):
        with pytest.raises(QueryError):
            And((TruePredicate(),))

    def test_or_requires_two_operands(self):
        with pytest.raises(QueryError):
            Or((TruePredicate(),))


class TestRowPartition:
    def test_partitions_are_disjoint_exhaustive_interleaved(self, table):
        masks = [RowPartition(index, 3).evaluate(table) for index in range(3)]
        assert [names(table, mask) for mask in masks] == [
            ["ann", "dee"], ["bob"], ["cid"],
        ]
        assert np.sum(masks, axis=0).tolist() == [1, 1, 1, 1]
        assert RowPartition(0, 3).referenced_columns() == frozenset()

    def test_memory_engine_takes_a_strided_view_not_a_copy(self, table):
        from repro.db.engine import Engine

        sliced = Engine._apply_predicate(table, RowPartition(1, 2))
        assert names(sliced, slice(None)) == ["bob", "dee"]
        assert np.shares_memory(sliced.column("age"), table.column("age"))
        rest = RowPartition(1, 2) & (col("age") == 25) & (col("name") == "dee")
        assert names(Engine._apply_predicate(table, rest), slice(None)) == ["dee"]

    def test_split_peels_only_a_leading_partition(self):
        partition, other = RowPartition(0, 2), col("age") == 25
        assert split_partition(None) == (None, None)
        assert split_partition(partition) == (partition, None)
        assert split_partition(partition & other) == (partition, other)
        assert split_partition(other & partition) == (None, other & partition)
        assert split_partition(And((partition, other, other))) == (
            partition, other & other,
        )

    def test_has_no_wire_form(self):
        from repro.api.codec import expression_to_wire
        from repro.api.errors import ApiError

        with pytest.raises(ApiError):
            expression_to_wire(RowPartition(0, 2))


class TestReferencedColumns:
    def test_comparison(self):
        assert (col("a") == 1).referenced_columns() == {"a"}

    def test_nested(self):
        predicate = ((col("a") == 1) & (col("b") > 2)) | ~(col("c") != 3)
        assert predicate.referenced_columns() == {"a", "b", "c"}

    def test_true_predicate_references_nothing(self):
        assert TruePredicate().referenced_columns() == frozenset()

    def test_between_and_in(self):
        assert Between(ColumnRef("x"), 1, 2).referenced_columns() == {"x"}
        assert In(ColumnRef("y"), (1,)).referenced_columns() == {"y"}
