"""Contract: the planner's statistics pass and the cost-based choice.

Two promises every backend must keep:

* ``collect_statistics`` is *cheap and invisible* — at most two logical
  metadata queries, zero view-query round trips, and never a
  ``data_version`` bump (a stats pass must not invalidate caches) — and
  the pushed SQL path agrees exactly with the client-side numpy fallback.
* The cost-based planner is *equivalence-preserving* — whatever candidate
  it picks, the top-k recommendations are bit-identical to the static
  planner's, across every combining mode.
"""

import pytest

from conformance_kit import medium_workload
from repro.api import RecommendationRequest
from repro.backends.base import collect_statistics
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.metadata.stats import profile_from_table
from repro.optimizer.plan import GroupByCombining


class TestStatisticsContract:
    def test_stats_cost_and_invisibility(self, backend):
        """<= 2 logical metadata queries, 0 view queries, no version bump."""
        version = backend.data_version
        queries = backend.queries_executed
        metadata_queries = backend.metadata_queries_executed

        profile = collect_statistics(backend, "conformance")

        assert backend.data_version == version
        assert backend.queries_executed == queries
        assert backend.metadata_queries_executed - metadata_queries <= 2
        assert profile.n_rows == 16

    def test_source_matches_capability_declaration(self, backend):
        profile = collect_statistics(backend, "conformance")
        expected = "pushed" if backend.capabilities.stats_pushdown else "clientside"
        assert profile.source == expected

    def test_pushed_agrees_with_clientside(self, backend, contract_table):
        """Both paths profile the NULL-bearing contract table identically."""
        collected = collect_statistics(backend, "conformance")
        reference = profile_from_table(contract_table)
        assert set(collected.attributes) == set(reference.attributes)
        assert collected.n_rows == reference.n_rows
        for name, expected in reference.attributes.items():
            actual = collected[name]
            assert actual.n_distinct == expected.n_distinct, name
            assert actual.null_fraction == pytest.approx(
                expected.null_fraction
            ), name
            assert actual.max_group_fraction == pytest.approx(
                expected.max_group_fraction
            ), name

    def test_region_nulls_are_profiled_not_counted_as_a_group(self, backend):
        """The contract table's NULL region rows: excluded from distinct
        and group-size accounting, surfaced as the null fraction."""
        profile = collect_statistics(backend, "conformance")
        region = profile["region"]
        assert region.n_distinct == 3  # r0/r1/r2, NULL excluded
        assert region.null_fraction == pytest.approx(2 / 16)
        assert region.max_group_fraction == pytest.approx(6 / 14)


class TestCostBasedEquivalence:
    MODES = (
        GroupByCombining.AUTO,
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
    def test_top_k_bit_identical_to_static_planner(self, make_backend, mode):
        table, query = medium_workload()
        cost_based = self.top_k(
            make_backend, table, query, SeeDBConfig(groupby_combining=mode)
        )
        static = self.top_k(
            make_backend,
            table,
            query,
            SeeDBConfig(groupby_combining=mode, cost_based_planning=False),
        )
        assert cost_based == static
