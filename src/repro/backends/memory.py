"""Memory backend: the from-scratch column store behind the Backend seam."""

from __future__ import annotations

from repro.backends.base import Backend, BackendCapabilities
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.query import AggregateQuery, GroupingSetsQuery, RowSelectQuery
from repro.db.schema import Schema
from repro.db.table import Table
from repro.sampling.bernoulli import BernoulliSampler
from repro.testing.faults import fault_point
from repro.util.deadline import check_current


class MemoryBackend(Backend):
    """Executes logical queries directly on :class:`repro.db.Engine`.

    Fully supports shared-scan GROUPING SETS, making it the backend where
    the "Combine Multiple Group-bys" optimization shows its true effect —
    verifiable through ``engine.stats`` scan counters. One engine object
    is shared safely by every thread.
    """

    name = "memory"
    capabilities = BackendCapabilities(
        grouping_sets=True,
        native_sampling=True,
    )

    def __init__(self) -> None:
        super().__init__()
        self.catalog = Catalog()
        self.engine = Engine(self.catalog)

    # -- data management -------------------------------------------------

    def register_table(self, table: Table, replace: bool = False) -> None:
        # A registration is a new Table over the same arrays: its
        # dictionary encoding lives as long as the registration, so
        # registering one object again encodes its columns again.
        registered = Table(table.name, table.schema, table.columns)
        with self._accounting_lock:
            self.catalog.register(registered, replace=replace)
            self._bump_data_version()

    def drop_table(self, name: str) -> None:
        with self._accounting_lock:
            self.catalog.drop(name)
            self._bump_data_version()

    def has_table(self, name: str) -> bool:
        return name in self.catalog

    def table_names(self) -> list[str]:
        return sorted(self.catalog)

    def schema(self, table_name: str) -> Schema:
        return self.catalog.get(table_name).schema

    def row_count(self, table_name: str) -> int:
        return self.catalog.get(table_name).num_rows

    # -- execution --------------------------------------------------------

    def execute(self, query: "AggregateQuery | RowSelectQuery") -> Table:
        # Cancellation checkpoint: the in-memory engine has no interrupt
        # machinery, so per-query granularity is the cooperation unit.
        check_current()
        fault_point("backend.execute")
        self._require_table(query.table)
        # seedb-lint: disable=counter-accounting -- counted inside the query engine (engine.stats); queries_executed reads it
        result = self.engine.execute(query)
        assert isinstance(result, Table)
        return result

    def execute_grouping_sets(self, query: GroupingSetsQuery) -> list[Table]:
        check_current()
        fault_point("backend.execute")
        self._require_table(query.table)
        return self.engine.execute_grouping_sets(query)

    # -- support services ---------------------------------------------------

    def fetch_table(self, name: str, max_rows: "int | None" = None) -> Table:
        table = self.catalog.get(name)
        if max_rows is not None and table.num_rows > max_rows:
            return table.head(max_rows)
        return table

    def create_sample(
        self, source: str, sample_name: str, fraction: float, seed: int = 0
    ) -> str:
        table = self.catalog.get(source)
        sampler = BernoulliSampler(fraction)
        sample = sampler.sample(table, seed=seed).rename(sample_name)
        self.catalog.register(sample, replace=True)
        return sample_name

    def register_derived(self, table: Table) -> None:
        with self._accounting_lock:
            self.catalog.register(table, replace=True)

    # -- accounting --------------------------------------------------------

    @property
    def queries_executed(self) -> int:
        # Counted inside the query engine (under its stats lock) rather
        # than through Backend._record_queries — same exactness guarantee.
        return self.engine.stats.queries

    @property
    def statements_executed(self) -> int:
        # Every logical query is one engine call: the counters coincide.
        return self.engine.stats.queries

    def reset_counters(self) -> None:
        self.engine.stats.reset()
        super().reset_counters()  # the base metadata-query counter

    def __repr__(self) -> str:
        return f"MemoryBackend(tables={len(self.catalog)})"
