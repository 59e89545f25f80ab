"""Contract: metadata discovery, registration, accounting, lifecycle."""

import dataclasses

import numpy as np
import pytest

from repro.backends.base import BackendCapabilities
from repro.db.query import AggregateQuery, RowSelectQuery
from repro.db.aggregates import Aggregate
from repro.db.types import AttributeRole
from repro.util.errors import ReproError


class TestCapabilityDeclaration:
    def test_capabilities_declared(self, backend):
        caps = backend.capabilities
        assert isinstance(caps, BackendCapabilities)
        for flag in ("grouping_sets", "native_sampling"):
            assert isinstance(getattr(caps, flag), bool), flag

    def test_capabilities_are_immutable(self, backend):
        with pytest.raises(dataclasses.FrozenInstanceError):
            backend.capabilities.grouping_sets = not backend.capabilities.grouping_sets

    def test_name_declared(self, backend):
        assert backend.name
        assert isinstance(backend.name, str)


class TestSchemaDiscovery:
    def test_schema_preserves_columns_and_roles(self, backend, contract_table):
        schema = backend.schema("conformance")
        assert schema.names == contract_table.schema.names
        assert [spec.role for spec in schema] == [
            AttributeRole.DIMENSION,
            AttributeRole.DIMENSION,
            AttributeRole.MEASURE,
            AttributeRole.MEASURE,
        ]

    def test_row_count(self, backend):
        assert backend.row_count("conformance") == 16

    def test_has_table(self, backend):
        assert backend.has_table("conformance")
        assert not backend.has_table("missing")

    def test_unknown_table_raises(self, backend):
        with pytest.raises(ReproError):
            backend.schema("missing")
        with pytest.raises(ReproError):
            backend.row_count("missing")
        with pytest.raises(ReproError):
            backend.execute(RowSelectQuery("missing"))

    def test_fetch_table_roundtrip(self, backend, contract_table):
        fetched = backend.fetch_table("conformance")
        assert fetched.num_rows == 16
        assert fetched.schema.names == contract_table.schema.names
        # NaN measures survive the trip (as NaN, not 0 or a crash).
        amounts = np.asarray(fetched.column("amount"), dtype=float)
        assert int(np.isnan(amounts).sum()) == 1
        np.testing.assert_allclose(
            np.nansum(amounts), np.nansum(contract_table.column("amount"))
        )

    def test_fetch_table_max_rows(self, backend):
        assert backend.fetch_table("conformance", max_rows=5).num_rows == 5
        assert backend.fetch_table("conformance", max_rows=1000).num_rows == 16


class TestRegistration:
    def test_double_register_rejected(self, backend, contract_table):
        with pytest.raises(ReproError):
            backend.register_table(contract_table)
        backend.register_table(contract_table, replace=True)
        assert backend.row_count("conformance") == 16

    def test_drop_table(self, backend, contract_table):
        backend.register_table(contract_table.rename("doomed"))
        assert backend.has_table("doomed")
        backend.drop_table("doomed")
        assert not backend.has_table("doomed")
        with pytest.raises(ReproError):
            backend.drop_table("doomed")

    def test_data_version_bumps_on_writes_only(self, backend, contract_table):
        version = backend.data_version
        backend.register_table(contract_table.rename("other"))
        assert backend.data_version > version

        version = backend.data_version
        backend.execute(RowSelectQuery("conformance"))
        backend.execute(
            AggregateQuery("conformance", ("product",), (Aggregate("count"),))
        )
        backend.fetch_table("conformance", max_rows=3)
        assert backend.data_version == version  # reads never bump

        backend.drop_table("other")
        assert backend.data_version > version

    def test_derived_tables_do_not_bump_data_version(self, backend, contract_table):
        version = backend.data_version
        backend.create_sample("conformance", "conformance_sample", 1.0, seed=3)
        assert backend.has_table("conformance_sample")
        backend.register_derived(contract_table.rename("conformance_derived"))
        assert backend.has_table("conformance_derived")
        assert backend.data_version == version


class TestAccounting:
    def test_execute_counts_one_logical_query(self, backend):
        queries = backend.queries_executed
        statements = backend.statements_executed
        backend.execute(
            AggregateQuery("conformance", ("product",), (Aggregate("count"),))
        )
        assert backend.queries_executed == queries + 1
        assert backend.statements_executed == statements + 1

    def test_statements_never_exceed_queries(self, backend):
        from repro.db.query import GroupingSetsQuery

        backend.reset_counters()
        backend.execute(RowSelectQuery("conformance"))
        backend.execute_grouping_sets(
            GroupingSetsQuery(
                "conformance",
                (("region",), ("product",)),
                (Aggregate("count"),),
            )
        )
        assert 0 < backend.statements_executed <= backend.queries_executed

    def test_reset_counters(self, backend):
        backend.execute(RowSelectQuery("conformance"))
        backend.reset_counters()
        assert backend.queries_executed == 0
        assert backend.statements_executed == 0


class TestLifecycle:
    def test_close_is_idempotent(self, make_backend, contract_table):
        backend = make_backend()
        backend.register_table(contract_table)
        backend.close()
        backend.close()  # second close must be a no-op, not an error

    def test_close_releases_connections(self, make_backend, contract_table):
        backend = make_backend()
        backend.register_table(contract_table)
        backend.execute(RowSelectQuery("conformance"))
        if not hasattr(backend, "open_connections"):
            pytest.skip("backend does not track connections")
        assert backend.open_connections > 0
        backend.close()
        assert backend.open_connections == 0
