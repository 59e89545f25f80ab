"""Unit tests: statistics, access log, and the metadata collector."""

import numpy as np
import pytest

from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.query import AggregateQuery, RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.metadata import (
    AccessLog,
    MetadataCollector,
    cramers_v,
    pearson_correlation,
)
from repro.metadata.stats import compute_column_stats, compute_table_stats
from repro.util.errors import ConfigError


class TestColumnStats:
    def test_categorical_stats(self, sales_table):
        stats = compute_column_stats(sales_table, "store")
        assert stats.n_distinct == 4
        assert stats.n_rows == 12
        assert stats.entropy == pytest.approx(2.0)  # uniform over 4 values
        assert stats.min_value is None

    def test_numeric_stats(self, sales_table):
        stats = compute_column_stats(sales_table, "amount")
        assert stats.min_value == pytest.approx(10.0)
        assert stats.max_value == pytest.approx(180.55)
        assert stats.mean is not None and stats.variance > 0

    def test_constant_detection(self):
        table = Table.from_columns("t", {"c": ["x"] * 5, "v": [1.0] * 5})
        stats = compute_column_stats(table, "c")
        assert stats.is_constant
        assert stats.entropy == pytest.approx(0.0)

    def test_nan_counts_as_null(self, nan_table):
        stats = compute_column_stats(nan_table, "value")
        assert stats.null_count == 2
        assert stats.n_distinct == 3  # 1, 3, 5

    def test_top_values_ordered(self):
        table = Table.from_columns(
            "t", {"k": ["a"] * 5 + ["b"] * 2 + ["c"], "v": [1.0] * 8}
        )
        stats = compute_column_stats(table, "k")
        assert stats.top_values[0] == ("a", 5)
        assert stats.top_values[1] == ("b", 2)

    def test_distinct_fraction(self, sales_table):
        stats = compute_column_stats(sales_table, "store")
        assert stats.distinct_fraction == pytest.approx(4 / 12)

    def test_table_stats(self, sales_table):
        stats = compute_table_stats(sales_table)
        assert stats.n_rows == 12
        assert list(stats.columns) == ["store", "product", "month"]
        assert stats.cardinalities() == {"store": 4, "product": 2, "month": 4}


class TestAssociations:
    def test_cramers_v_perfect_dependency(self):
        a = np.array(["x", "y", "z"] * 40, dtype=object)
        b = np.array([f"copy_{v}" for v in a], dtype=object)
        assert cramers_v(a, b) > 0.95

    def test_cramers_v_independent(self):
        rng = np.random.default_rng(0)
        a = rng.choice(["x", "y", "z"], 600).astype(object)
        b = rng.choice(["p", "q"], 600).astype(object)
        assert cramers_v(a, b) < 0.2

    def test_cramers_v_constant_column_zero(self):
        a = np.array(["x"] * 10, dtype=object)
        b = np.array(["p", "q"] * 5, dtype=object)
        assert cramers_v(a, b) == 0.0

    def test_cramers_v_length_mismatch(self):
        with pytest.raises(ValueError):
            cramers_v(np.array(["a"]), np.array(["a", "b"]))

    def test_pearson_perfect(self):
        a = np.arange(50, dtype=np.float64)
        assert pearson_correlation(a, 2 * a + 1) == pytest.approx(1.0)

    def test_pearson_handles_nan(self):
        a = np.array([1.0, 2.0, np.nan, 4.0])
        b = np.array([2.0, 4.0, 6.0, 8.0])
        assert pearson_correlation(a, b) == pytest.approx(1.0)

    def test_pearson_constant_is_zero(self):
        assert pearson_correlation(np.ones(10), np.arange(10.0)) == 0.0


class TestAccessLog:
    def test_record_query_extracts_columns(self, sales_table):
        log = AccessLog()
        log.record_query(RowSelectQuery("sales", col("product") == "x"))
        log.record_query(
            AggregateQuery(
                "sales",
                ("store",),
                (Aggregate("sum", "amount"),),
                col("product") == "x",
            )
        )
        assert log.count("sales", "product") == 2.0
        assert log.count("sales", "store") == 1.0
        assert log.count("sales", "amount") == 1.0
        assert log.queries_recorded == 2

    def test_frequency_relative_to_peak(self):
        log = AccessLog()
        log.record_columns("t", {"a"})
        log.record_columns("t", {"a"})
        log.record_columns("t", {"b"})
        assert log.frequency("t", "a") == pytest.approx(1.0)
        assert log.frequency("t", "b") == pytest.approx(0.5)
        assert log.frequency("t", "never") == 0.0

    def test_cold_start_frequency_is_one(self):
        log = AccessLog()
        assert log.frequency("unseen_table", "anything") == 1.0

    def test_decay(self):
        log = AccessLog(decay=0.5)
        log.record_columns("t", {"a"})
        log.record_columns("t", {"b"})  # a decays to 0.5
        assert log.count("t", "a") == pytest.approx(0.5)
        assert log.count("t", "b") == pytest.approx(1.0)

    def test_invalid_decay(self):
        with pytest.raises(ConfigError):
            AccessLog(decay=0.0)

    def test_most_accessed(self):
        log = AccessLog()
        for _ in range(3):
            log.record_columns("t", {"hot"})
        log.record_columns("t", {"cold"})
        assert log.most_accessed("t", k=1) == [("hot", 3.0)]


class TestCollector:
    def test_dimension_associations_present(self, sales_table):
        metadata = MetadataCollector().collect(sales_table)
        value = metadata.association("store", "product")
        assert 0.0 <= value <= 1.0

    def test_association_unknown_pair_zero(self, sales_table):
        metadata = MetadataCollector().collect(sales_table)
        assert metadata.association("store", "no_such") == 0.0

    def test_association_sampling_bounded(self):
        table = Table.from_columns(
            "big",
            {
                "a": [f"v{i % 7}" for i in range(5000)],
                "b": [f"w{i % 3}" for i in range(5000)],
                "m": [float(i) for i in range(5000)],
            },
            roles={
                "a": AttributeRole.DIMENSION,
                "b": AttributeRole.DIMENSION,
                "m": AttributeRole.MEASURE,
            },
        )
        collector = MetadataCollector(association_sample_rows=500)
        metadata = collector.collect(table)
        assert frozenset(("a", "b")) in metadata.dimension_associations
