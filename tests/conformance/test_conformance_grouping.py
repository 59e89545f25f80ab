"""Contract: aggregation semantics, grouping sets, flag partitioning.

The semantic core of the kit: every backend must aggregate like SQL
(NaN/NULL-skipping), keep a grouping-sets result bit-identical to the
per-set single queries (including NULL *data* groups, which native
GROUPING SETS and the UNION ALL emulation must both keep distinct from
their "key absent from this set" placeholder NULLs), and partition
flag-combined reference queries exactly.
"""

import numpy as np
import pytest

from conformance_kit import assert_same_groups, groups_of, normalize_key
from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.query import AggregateQuery, FlagColumn, GroupingSetsQuery
from repro.optimizer.extract import FLAG_NAME
from repro.util.errors import QueryError


def nan_aware(values):
    """Ground-truth aggregate input: the non-NaN values of a group."""
    arr = np.asarray(values, dtype=float)
    return arr[~np.isnan(arr)]


class TestAggregationSemantics:
    AGGREGATES = (
        Aggregate("sum", "amount"),
        Aggregate("avg", "amount"),
        Aggregate("min", "amount"),
        Aggregate("max", "amount"),
        Aggregate("count"),
        Aggregate("var", "amount"),
        Aggregate("std", "amount"),
    )

    def test_groupby_matches_ground_truth(self, backend, contract_table):
        result = backend.execute(
            AggregateQuery("conformance", ("product",), self.AGGREGATES)
        )
        products = [normalize_key(v) for v in contract_table.column("product")]
        amounts = np.asarray(contract_table.column("amount"), dtype=float)
        for group in ("p0", "p1"):
            rows = [i for i, p in enumerate(products) if p == group]
            clean = nan_aware(amounts[rows])
            expected = {
                "sum(amount)": clean.sum(),
                "avg(amount)": clean.mean(),
                "min(amount)": clean.min(),
                "max(amount)": clean.max(),
                "count(*)": float(len(rows)),
                "var(amount)": clean.var(),
                "std(amount)": clean.std(),
            }
            for alias, value in expected.items():
                got = groups_of(result, "product", alias)[group]
                np.testing.assert_allclose(
                    got, value, rtol=1e-9, err_msg=f"{alias} of {group}"
                )

    def test_null_dimension_forms_its_own_group(self, backend, contract_table):
        result = backend.execute(
            AggregateQuery("conformance", ("region",), (Aggregate("count"),))
        )
        groups = groups_of(result, "region", "count(*)")
        # 2 genuine NULL region rows, partitioned away from r0/r1/r2.
        assert groups[None] == 2.0
        assert groups["r0"] == 6.0
        assert sum(groups.values()) == 16.0

    def test_predicate_pushdown(self, backend):
        result = backend.execute(
            AggregateQuery(
                "conformance",
                ("region",),
                (Aggregate("count"),),
                col("product") == "p0",
            )
        )
        groups = groups_of(result, "region", "count(*)")
        assert sum(groups.values()) == 8.0


class TestGroupingSets:
    SETS = (("region",), ("product",))
    AGGREGATES = (Aggregate("sum", "units"), Aggregate("count"))

    def query(self, predicate=None):
        return GroupingSetsQuery("conformance", self.SETS, self.AGGREGATES, predicate)

    def test_matches_per_set_single_queries(self, backend):
        combined = backend.execute_grouping_sets(self.query())
        singles = [backend.execute(q) for q in self.query().as_single_queries()]
        assert len(combined) == len(singles) == 2
        for merged, single, (key,) in zip(combined, singles, self.SETS):
            for alias in ("sum(units)", "count(*)"):
                assert_same_groups(merged, single, key, alias)

    def test_null_group_disambiguation(self, backend):
        """A NULL *data* value in one set's key must stay a real group of
        that set and never leak into (or absorb rows of) the other set —
        the exact confusion native GROUPING SETS placeholders invite."""
        region_result, product_result = backend.execute_grouping_sets(self.query())
        region_groups = groups_of(region_result, "region", "count(*)")
        product_groups = groups_of(product_result, "product", "count(*)")
        assert region_groups[None] == 2.0
        assert None not in product_groups  # product has no NULLs
        assert sum(region_groups.values()) == 16.0
        assert sum(product_groups.values()) == 16.0

    def test_with_predicate(self, backend):
        predicate = col("units") > 1.0
        combined = backend.execute_grouping_sets(self.query(predicate))
        singles = [
            backend.execute(q) for q in self.query(predicate).as_single_queries()
        ]
        for merged, single, (key,) in zip(combined, singles, self.SETS):
            assert_same_groups(merged, single, key, "count(*)")

    def test_logical_query_accounting_follows_capability(self, backend):
        """Native shared scans count once; emulations count one per set."""
        backend.reset_counters()
        backend.execute_grouping_sets(self.query())
        expected = 1 if backend.capabilities.grouping_sets else len(self.SETS)
        assert backend.queries_executed == expected
        assert backend.statements_executed == 1

    def test_single_set_degenerates_to_plain_query(self, backend):
        (only,) = backend.execute_grouping_sets(
            GroupingSetsQuery("conformance", (("product",),), self.AGGREGATES)
        )
        single = backend.execute(
            AggregateQuery("conformance", ("product",), self.AGGREGATES)
        )
        assert_same_groups(only, single, "product", "sum(units)")

    def test_duplicate_key_or_alias_in_a_set_rejected(self, backend):
        twice = (Aggregate("sum", "units", "x"), Aggregate("avg", "units", "x"))
        for sets, aggregates in (
            ((("region", "region"),), self.AGGREGATES),
            (self.SETS, twice),
        ):
            with pytest.raises(QueryError, match="duplicate"):
                backend.execute_grouping_sets(
                    GroupingSetsQuery("conformance", sets, aggregates)
                )


class TestFlagPartitioning:
    """The combine-target/comparison mechanism: ``GROUP BY (flag, a)``."""

    def flag_query(self):
        return AggregateQuery(
            "conformance",
            (FlagColumn(FLAG_NAME, col("product") == "p0"), "region"),
            (Aggregate("sum", "units"), Aggregate("count")),
        )

    def test_partitions_are_exact(self, backend, contract_table):
        result = backend.execute(self.flag_query())
        flags = np.asarray(result.column(FLAG_NAME), dtype=int)
        assert set(flags.tolist()) <= {0, 1}

        products = [normalize_key(v) for v in contract_table.column("product")]
        regions = [normalize_key(v) for v in contract_table.column("region")]
        units = np.asarray(contract_table.column("units"), dtype=float)
        keys = [normalize_key(v) for v in result.column("region")]
        sums = np.asarray(result.column("sum(units)"), dtype=float)
        for flag, key, total in zip(flags, keys, sums):
            rows = [
                i
                for i in range(16)
                if regions[i] == key and (products[i] == "p0") == bool(flag)
            ]
            np.testing.assert_allclose(total, units[rows].sum())

    def test_partitions_cover_the_table(self, backend):
        result = backend.execute(self.flag_query())
        counts = np.asarray(result.column("count(*)"), dtype=float)
        assert counts.sum() == 16.0

    def test_flag_partition_agrees_with_predicate_queries(self, backend):
        """flag=1 rows == the target query, flag=0 == its complement."""
        result = backend.execute(self.flag_query())
        flags = np.asarray(result.column(FLAG_NAME), dtype=int)
        for flag, predicate in (
            (1, col("product") == "p0"),
            (0, col("product") != "p0"),
        ):
            direct = backend.execute(
                AggregateQuery(
                    "conformance", ("region",), (Aggregate("sum", "units"),), predicate
                )
            )
            expected = groups_of(direct, "region", "sum(units)")
            got = {
                normalize_key(key): float(value)
                for f, key, value in zip(
                    flags, result.column("region"), result.column("sum(units)")
                )
                if int(f) == flag
            }
            assert got == pytest.approx(expected)
