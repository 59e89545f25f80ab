"""Unit tests: the columnar Table."""

import pickle

import numpy as np
import pytest

from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.types import AttributeRole, DataType
from repro.util.errors import SchemaError


class TestConstruction:
    def test_from_columns_infers_types_and_roles(self):
        table = Table.from_columns(
            "t", {"region": ["a", "b"], "price": [1.0, 2.0]}
        )
        assert table.schema["region"].role is AttributeRole.DIMENSION
        assert table.schema["price"].role is AttributeRole.MEASURE
        assert table.num_rows == 2

    def test_from_columns_role_override(self):
        table = Table.from_columns(
            "t",
            {"year": [2020, 2021]},
            roles={"year": AttributeRole.DIMENSION},
        )
        assert table.schema["year"].role is AttributeRole.DIMENSION

    def test_from_rows(self):
        table = Table.from_rows("t", ["a", "n"], [("x", 1), ("y", 2)])
        assert table.to_rows() == [("x", 1), ("y", 2)]

    def test_from_rows_ragged_rejected(self):
        with pytest.raises(SchemaError, match="cells"):
            Table.from_rows("t", ["a", "b"], [("x",)])

    def test_ragged_columns_rejected(self):
        schema = Schema.of(
            ColumnSpec("a", DataType.INT, AttributeRole.DIMENSION),
            ColumnSpec("b", DataType.INT, AttributeRole.DIMENSION),
        )
        with pytest.raises(SchemaError, match="ragged"):
            Table("t", schema, {"a": np.array([1]), "b": np.array([1, 2])})

    def test_schema_column_mismatch_rejected(self):
        schema = Schema.of(ColumnSpec("a", DataType.INT, AttributeRole.DIMENSION))
        with pytest.raises(SchemaError, match="mismatch"):
            Table("t", schema, {"b": np.array([1])})

    def test_wrong_dtype_rejected(self):
        schema = Schema.of(ColumnSpec("a", DataType.INT, AttributeRole.DIMENSION))
        with pytest.raises(SchemaError, match="dtype"):
            Table("t", schema, {"a": np.array([1.0])})

    def test_empty_like(self):
        source = Table.from_columns("t", {"a": ["x"], "n": [1]})
        empty = Table.empty_like(source, "e")
        assert empty.num_rows == 0
        assert empty.schema.names == source.schema.names


class TestOperations:
    @pytest.fixture
    def table(self):
        return Table.from_columns(
            "t", {"k": ["a", "b", "a", "c"], "v": [1.0, 2.0, 3.0, 4.0]}
        )

    def test_mask(self, table):
        kept = table.mask(np.array([True, False, True, False]))
        assert kept.to_rows() == [("a", 1.0), ("a", 3.0)]

    def test_mask_requires_bool(self, table):
        with pytest.raises(SchemaError, match="boolean"):
            table.mask(np.array([1, 0, 1, 0]))

    def test_take(self, table):
        taken = table.take(np.array([3, 0]))
        assert taken.to_rows() == [("c", 4.0), ("a", 1.0)]

    def test_select_columns(self, table):
        projected = table.select_columns(["v"])
        assert projected.schema.names == ("v",)

    def test_head(self, table):
        assert table.head(2).num_rows == 2

    def test_row_and_iteration(self, table):
        assert table.row(1) == {"k": "b", "v": 2.0}
        assert len(list(table.iter_rows())) == 4

    def test_rename(self, table):
        assert table.rename("new").name == "new"

    def test_codes_index_sorted_uniques_in_the_narrowest_type(self, table):
        codes, uniques = table.codes("k")
        assert codes.dtype == np.int8
        assert codes.tolist() == [0, 1, 0, 2]
        assert uniques.tolist() == ["a", "b", "c"]

    def test_derived_table_cuts_its_parents_codes(self, table):
        kept = table.mask(np.array([False, True, False, True]))
        codes, uniques = kept.codes("k")
        assert codes.tolist() == [0, 1]
        assert uniques.tolist() == ["b", "c"]

    def test_pickle_ships_the_data_not_the_encoding(self, table):
        # Tables cross to cluster workers by pickle; the copy is a new
        # object that encodes its own columns on first use.
        kept = table.mask(np.array([True, True, False, True]))
        kept.codes("k")
        copy = pickle.loads(pickle.dumps(kept))
        assert copy.to_rows() == kept.to_rows()
        assert copy.codes("k")[0].tolist() == kept.codes("k")[0].tolist()

    def test_column_unknown_raises(self, table):
        with pytest.raises(SchemaError):
            table.column("nope")

    def test_repr_mentions_rows(self, table):
        assert "rows=4" in repr(table)
