"""Contract: the one statistics pass and the cost-based choice.

Two promises every backend must keep:

* Statistics are collected *once* per ``(table, data_version)``, by the
  Metadata phase: a warm request exports no table, issues no metadata
  statement and never bumps ``data_version``, and the planner prices
  plans from the pruners' own dimension statistics plus the exact row
  count — so every backend plans from the same numbers.
* The cost-based planner is *equivalence-preserving* — whatever candidate
  ``AUTO`` picks, the top-k views are those of every pinned kind, with
  utilities equal up to the summation order rollup marginalisation
  changes.
"""

import pytest

from conformance_kit import medium_workload
from repro.api import RecommendationRequest
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.metadata.stats import compute_column_stats
from repro.optimizer import cost
from repro.optimizer.plan import GroupByCombining


def request(product: str) -> RecommendationRequest:
    return RecommendationRequest(
        RowSelectQuery("conformance", col("product") == product), k=2
    )


@pytest.fixture
def fetches(backend, monkeypatch) -> list:
    """Every ``fetch_table`` call the backend serves, by table name."""
    calls: list = []
    fetch = backend.fetch_table

    def counting_fetch(name, *args, **kwargs):
        calls.append(name)
        return fetch(name, *args, **kwargs)

    monkeypatch.setattr(backend, "fetch_table", counting_fetch)
    return calls


@pytest.fixture
def priced(monkeypatch) -> list:
    """``(n_rows, cardinalities)`` of every candidate the cost model prices."""
    calls: list = []
    estimate = cost.estimate_bin_costs

    def recording_estimate(bins, kind, combine_flag, n_rows, cardinalities, *args):
        calls.append((n_rows, dict(cardinalities)))
        return estimate(bins, kind, combine_flag, n_rows, cardinalities, *args)

    monkeypatch.setattr(cost, "estimate_bin_costs", recording_estimate)
    return calls


class TestOneStatisticsPass:
    def test_cold_request_exports_the_table_once(self, backend, fetches):
        with SeeDB(backend, SeeDBConfig()) as seedb:
            seedb.recommend(request("p0"))
        assert fetches == ["conformance"]

    def test_warm_request_collects_nothing(self, backend, fetches):
        """No export, no metadata statement, no version bump."""
        with SeeDB(backend, SeeDBConfig()) as seedb:
            seedb.recommend(request("p0"))
            fetches.clear()
            version = backend.data_version
            metadata_queries = backend.metadata_queries_executed
            seedb.recommend(request("p1"))
            assert fetches == []
            assert backend.metadata_queries_executed == metadata_queries
            assert backend.data_version == version

    def test_planner_cardinalities_are_the_pruners_n_distinct(
        self, backend, contract_table, priced
    ):
        """Every backend plans from the same numbers; the NULL-bearing
        ``region`` counts its NULL group (r0, r1, r2, NULL)."""
        with SeeDB(backend, SeeDBConfig()) as seedb:
            seedb.recommend(request("p0"))
        expected = {
            spec.name: compute_column_stats(contract_table, spec.name).n_distinct
            for spec in contract_table.schema.dimensions
        }
        assert expected["region"] == 4
        assert priced and all(
            cardinalities == expected for _, cardinalities in priced
        )

    def test_capped_metadata_still_prices_every_row(self, backend, priced):
        """``metadata_max_rows`` caps the statistics, not the row count."""
        with SeeDB(backend, SeeDBConfig(metadata_max_rows=10)) as seedb:
            result = seedb.recommend(request("p0"))
        predicted = result.plan_decision["predicted"]
        assert predicted["n_scans"] > 0
        assert predicted["rows_scanned"] == 16 * predicted["n_scans"]
        assert priced and all(n_rows == 16 for n_rows, _ in priced)


class TestCostBasedEquivalence:
    MODES = (
        GroupByCombining.GROUPING_SETS,
        GroupByCombining.ROLLUP,
        GroupByCombining.NONE,
    )

    def top_k(self, make_backend, table, query, config):
        backend = make_backend()
        backend.register_table(table)
        with SeeDB(backend, config) as seedb:
            result = seedb.recommend(RecommendationRequest(query, k=5))
        return [(view.spec, view.utility) for view in result.recommendations]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_auto_top_k_matches_every_pinned_kind(self, make_backend, mode):
        table, query = medium_workload()
        auto = self.top_k(make_backend, table, query, SeeDBConfig())
        pinned = self.top_k(
            make_backend, table, query, SeeDBConfig(groupby_combining=mode)
        )
        assert [spec for spec, _ in auto] == [spec for spec, _ in pinned]
        for (_, a), (_, b) in zip(auto, pinned):
            assert a == pytest.approx(b, abs=1e-9)
