"""Unit tests: SQL generation and both DBMS backends."""

from datetime import date

import numpy as np
import pytest

from repro.backends.sqlgen import (
    quote_identifier,
    render_aggregate,
    render_aggregate_query,
    render_expression,
    render_grouping_sets_native,
    render_grouping_sets_union,
    render_literal,
    render_row_select,
)
from repro.db.aggregates import Aggregate
from repro.db.expressions import RowPartition, TruePredicate, col
from repro.db.query import AggregateQuery, FlagColumn, GroupingSetsQuery, RowSelectQuery
from repro.db.table import Table
from repro.util.errors import BackendError, QueryError


class TestSqlGen:
    def test_quote_identifier(self):
        assert quote_identifier("plain") == '"plain"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_literals(self):
        assert render_literal(42) == "42"
        assert render_literal(1.5) == "1.5"
        assert render_literal("o'brien") == "'o''brien'"
        assert render_literal(True) == "1"
        assert render_literal(None) == "NULL"
        assert render_literal(date(2024, 3, 1)) == "'2024-03-01'"
        assert render_literal(np.int64(7)) == "7"

    def test_nan_literal_rejected(self):
        with pytest.raises(QueryError):
            render_literal(float("nan"))

    def test_expression_rendering(self):
        predicate = (col("a") == "x") & ((col("b") > 5) | ~(col("c") != 1))
        sql = render_expression(predicate)
        assert sql == '("a" = \'x\' AND ("b" > 5 OR NOT ("c" <> 1)))'

    def test_in_and_between(self):
        assert render_expression(col("k").isin(["a", "b"])) == "\"k\" IN ('a', 'b')"
        assert render_expression(col("v").between(1, 2)) == '"v" BETWEEN 1 AND 2'
        assert render_expression(col("k").isin([])) == "1=0"
        assert render_expression(TruePredicate()) == "1=1"

    def test_aggregates(self):
        assert render_aggregate(Aggregate("sum", "x")) == 'SUM("x") AS "sum(x)"'
        assert render_aggregate(Aggregate("count")) == 'COUNT(*) AS "count(*)"'
        assert render_aggregate(Aggregate("countv", "x")) == 'COUNT("x") AS "countv(x)"'
        assert 'SUM("x" * "x")' in render_aggregate(Aggregate("sumsq", "x"))
        assert "AVG" in render_aggregate(Aggregate("var", "x"))
        assert "sqrt" in render_aggregate(Aggregate("std", "x"))
        assert render_aggregate(Aggregate("var", "x"), native_var_std=True).startswith(
            "VAR_POP"
        )

    def test_full_query(self):
        query = AggregateQuery(
            "sales",
            ("store",),
            (Aggregate("sum", "amount"),),
            col("product") == "Laserwave",
        )
        sql = render_aggregate_query(query)
        assert sql == (
            'SELECT "store", SUM("amount") AS "sum(amount)" FROM "sales" '
            "WHERE \"product\" = 'Laserwave' GROUP BY 1 ORDER BY 1"
        )

    def test_flag_query_renders_case(self):
        flag = FlagColumn("f", col("p") == 1)
        sql = render_aggregate_query(
            AggregateQuery("t", (flag, "a"), (Aggregate("count"),))
        )
        assert 'CASE WHEN "p" = 1 THEN 1 ELSE 0 END AS "f"' in sql
        # Ordinal GROUP BY means the CASE appears only in the SELECT list.
        assert sql.count("CASE WHEN") == 1
        assert "GROUP BY 1, 2 ORDER BY 1, 2" in sql

    def test_row_select(self):
        sql = render_row_select(RowSelectQuery("t", col("x") > 2))
        assert sql == 'SELECT * FROM "t" WHERE "x" > 2'

    def test_row_partition_in_both_rowid_spellings(self):
        """0-based load position: SQLite's rowid counts from 1, DuckDB's
        from 0 — its renderer calls pass ``rowid_base=0``."""
        partition = RowPartition(2, 10)
        assert render_expression(partition) == "(rowid - 1) % 10 = 2"
        assert render_expression(partition, rowid_base=0) == "rowid % 10 = 2"
        where = partition & (col("p") == 1)
        query = AggregateQuery("t", ("a",), (Aggregate("count"),), where)
        assert 'WHERE ((rowid - 1) % 10 = 2 AND "p" = 1) GROUP BY' in (
            render_aggregate_query(query)
        )
        assert 'WHERE (rowid % 10 = 2 AND "p" = 1) GROUP BY' in (
            render_aggregate_query(query, native_var_std=True, rowid_base=0)
        )
        sets = GroupingSetsQuery("t", (("a",), ("b",)), (Aggregate("count"),), partition)
        union = render_grouping_sets_union(sets, rowid_base=0)
        assert union.count("WHERE rowid % 10 = 2") == 2
        assert render_grouping_sets_union(sets).count("WHERE (rowid - 1) % 10 = 2") == 2
        native, _keys, _masks = render_grouping_sets_native(sets, rowid_base=0)
        assert "WHERE rowid % 10 = 2 GROUP BY GROUPING SETS" in native

    def test_row_partition_index_must_be_inside_the_modulus(self):
        for index, of in [(-1, 3), (3, 3), (0, 0)]:
            with pytest.raises(QueryError, match="row partition"):
                RowPartition(index, of)


class TestMemoryBackend:
    def test_capabilities(self, memory_backend):
        assert memory_backend.capabilities.grouping_sets

    def test_schema_and_row_count(self, memory_backend):
        assert memory_backend.row_count("sales") == 12
        assert "store" in memory_backend.schema("sales")

    def test_unknown_table_raises(self, memory_backend):
        with pytest.raises(Exception):
            memory_backend.execute(RowSelectQuery("missing"))

    def test_create_sample_registers_table(self, memory_backend):
        name = memory_backend.create_sample("sales", "sales_s", 0.99, seed=1)
        assert memory_backend.has_table(name)

    def test_fetch_table_caps_rows(self, memory_backend):
        assert memory_backend.fetch_table("sales", max_rows=3).num_rows == 3

    def test_counter_reset(self, memory_backend):
        memory_backend.execute(RowSelectQuery("sales"))
        assert memory_backend.queries_executed > 0
        memory_backend.reset_counters()
        assert memory_backend.queries_executed == 0


class TestSqliteBackend:
    def test_roundtrip_aggregate_query(self, sqlite_backend, memory_backend):
        query = AggregateQuery(
            "sales",
            ("store",),
            (Aggregate("sum", "amount"), Aggregate("avg", "profit")),
            col("product") == "Laserwave",
        )
        lite = sqlite_backend.execute(query)
        memory = memory_backend.execute(query)
        # Compare numerically column by column.
        for column in ("sum(amount)", "avg(profit)"):
            np.testing.assert_allclose(
                np.asarray(lite.column(column), dtype=float),
                np.asarray(memory.column(column), dtype=float),
            )
        assert list(lite.column("store")) == list(memory.column("store"))

    def test_row_select(self, sqlite_backend):
        result = sqlite_backend.execute(
            RowSelectQuery("sales", col("amount") > 100)
        )
        assert result.num_rows == 3

    def test_var_std_emulation(self, sqlite_backend, memory_backend):
        query = AggregateQuery(
            "sales", ("product",), (Aggregate("var", "amount"), Aggregate("std", "amount"))
        )
        lite = sqlite_backend.execute(query)
        memory = memory_backend.execute(query)
        for column in ("var(amount)", "std(amount)"):
            np.testing.assert_allclose(
                np.asarray(lite.column(column), dtype=float),
                np.asarray(memory.column(column), dtype=float),
                rtol=1e-9,
            )

    def test_grouping_sets_fallback(self, sqlite_backend):
        before = sqlite_backend.queries_executed
        results = sqlite_backend.execute_grouping_sets(
            GroupingSetsQuery(
                "sales", (("store",), ("product",)), (Aggregate("count"),)
            )
        )
        assert len(results) == 2
        assert sqlite_backend.queries_executed - before == 2  # one per set

    def test_deterministic_sampling(self, sqlite_backend):
        sqlite_backend.create_sample("sales", "s1", 0.5, seed=9)
        sqlite_backend.create_sample("sales", "s2", 0.5, seed=9)
        rows1 = sqlite_backend.fetch_table("s1").to_rows()
        rows2 = sqlite_backend.fetch_table("s2").to_rows()
        assert rows1 == rows2

    def test_invalid_sample_fraction(self, sqlite_backend):
        with pytest.raises(BackendError):
            sqlite_backend.create_sample("sales", "s", 0.0)

    def test_nan_roundtrips_as_null(self, nan_table):
        from repro.backends.sqlite import SqliteBackend

        backend = SqliteBackend()
        try:
            backend.register_table(nan_table)
            fetched = backend.fetch_table("readings")
            values = np.asarray(fetched.column("value"), dtype=float)
            assert np.isnan(values).sum() == 2
        finally:
            backend.close()

    def test_dates_roundtrip(self):
        from repro.backends.sqlite import SqliteBackend

        table = Table.from_columns(
            "d", {"day": [date(2024, 1, 2), date(2024, 3, 4)], "v": [1.0, 2.0]}
        )
        backend = SqliteBackend()
        try:
            backend.register_table(table)
            fetched = backend.fetch_table("d")
            assert fetched.column("day").dtype.kind == "M"
            result = backend.execute(
                RowSelectQuery("d", col("day") >= date(2024, 2, 1))
            )
            assert result.num_rows == 1
        finally:
            backend.close()

    def test_drop_table(self, sqlite_backend):
        sqlite_backend.create_sample("sales", "tmp", 0.5)
        sqlite_backend.drop_table("tmp")
        assert not sqlite_backend.has_table("tmp")

    def test_double_register_rejected(self, sqlite_backend, sales_table):
        with pytest.raises(BackendError):
            sqlite_backend.register_table(sales_table)
        sqlite_backend.register_table(sales_table, replace=True)


class TestRowSelectLimitSql:
    def test_limit_rendered(self):
        sql = render_row_select(RowSelectQuery("t", col("x") > 2, limit=7))
        assert sql.endswith("LIMIT 7")

    def test_sqlite_applies_limit(self, sqlite_backend):
        result = sqlite_backend.execute(RowSelectQuery("sales", limit=4))
        assert result.num_rows == 4
