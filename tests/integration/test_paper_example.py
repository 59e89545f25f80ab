"""Integration: the paper's running example end to end (E1-E3).

Table 1 must regenerate exactly; the sales-by-store view must be
interesting under the Scenario A data and uninteresting under Scenario B;
and running full SeeDB on the Scenario A fact table must put a
store-dimension view at the top of the recommendations.
"""

import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.laserwave import laserwave_sales_history
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.experiments.figures import (
    figure_1_spec,
    figures_2_3_utilities,
    verify_table_1,
)


class TestTable1:
    def test_exact_regeneration(self):
        result = verify_table_1(n_rows=5000)
        assert result["max_abs_error"] < 0.01
        assert result["computed"]["Cambridge, MA"] == pytest.approx(180.55, abs=0.01)


class TestFigure1:
    def test_chart_spec(self):
        spec = figure_1_spec()
        assert spec.categories[0] == "Cambridge, MA"
        assert spec.series[0].values[0] == pytest.approx(180.55)


class TestFigures2And3:
    def test_scenario_a_beats_b_for_every_metric(self):
        rows = figures_2_3_utilities()
        assert len(rows) >= 4
        for row in rows:
            assert row["utility_scenario_a"] > 5 * row["utility_scenario_b"], row


class TestFullPipelineOnLaserwave:
    @pytest.mark.parametrize("scenario,expect_store_top", [("a", True), ("b", False)])
    def test_store_view_ranking_depends_on_scenario(self, scenario, expect_store_top):
        backend = MemoryBackend()
        backend.register_table(
            laserwave_sales_history(n_rows=8000, seed=4, scenario=scenario)
        )
        seedb = SeeDB(backend, SeeDBConfig(prune_correlated=False))
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave"), k=3
            )
        )
        top_dimensions = [v.spec.dimension for v in result.recommendations]
        if expect_store_top:
            assert top_dimensions[0] == "store"
        else:
            # Same-trend scenario: the store view must NOT be the headline
            # recommendation (its deviation is tiny by construction).
            store_utilities = [
                utility
                for spec, utility in result.utilities.items()
                if spec.dimension == "store"
            ]
            assert max(store_utilities) < 0.2

    def test_summary_mentions_recommendations(self):
        backend = MemoryBackend()
        backend.register_table(laserwave_sales_history(n_rows=3000, seed=4))
        result = SeeDB(backend).recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave")
            )
        )
        summary = result.summary()
        assert "SeeDB recommendations" in summary
        assert "utility" in summary
