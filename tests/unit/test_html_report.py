"""Unit tests: the standalone HTML report."""

import pytest

from repro.api import RecommendationRequest
from repro.core.recommender import SeeDB
from repro.core.config import SeeDBConfig
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.viz.html_report import render_html_report, write_html_report


@pytest.fixture
def result(memory_backend):
    seedb = SeeDB(memory_backend, SeeDBConfig(prune_correlated=False))
    return seedb.recommend(
        RecommendationRequest(
            RowSelectQuery("sales", col("product") == "Laserwave"), k=3
        )
    )


class TestRenderHtml:
    def test_is_standalone_document(self, result):
        html = render_html_report(result)
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "<script" not in html  # no external/active content

    def test_contains_recommendations_and_charts(self, result, memory_backend):
        html = render_html_report(result, memory_backend.schema("sales"))
        for view in result.recommendations:
            assert view.spec.label in html
        assert html.count("<svg") == len(result.recommendations)

    def test_contains_work_accounting(self, result):
        html = render_html_report(result)
        assert "DBMS queries" in html
        assert "execute" in html  # phase table

    def test_escapes_query_text(self, memory_backend):
        seedb = SeeDB(memory_backend)
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("store") == "Cambridge, MA"), k=1
            )
        )
        html = render_html_report(result, title="a <b> & 'c'")
        assert "a &lt;b&gt; &amp; 'c'" in html

    def test_custom_title(self, result):
        html = render_html_report(result, title="Laserwave study")
        assert "<title>Laserwave study</title>" in html

    def test_pruned_views_listed(self, result):
        html = render_html_report(result)
        # The predicate-dimension exclusion always prunes product views.
        assert "Pruned views" in html
        assert "constrained by the" in html

    def test_pruned_list_capped(self, result):
        html = render_html_report(result, max_pruned_listed=1)
        assert "more</li>" in html


class TestWriteHtml:
    def test_writes_file(self, result, tmp_path, memory_backend):
        path = write_html_report(
            result, tmp_path / "out" / "report.html",
            memory_backend.schema("sales"),
        )
        assert path.exists()
        content = path.read_text()
        assert "<svg" in content
