"""Unit tests: chart specs, selection rules, renderers, and export."""

import json

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.db.schema import ColumnSpec
from repro.db.types import AttributeRole, DataType
from repro.model.view import ScoredView, ViewSpec
from repro.util.errors import ReproError
from repro.viz import (
    ChartSpec,
    ChartType,
    Series,
    dimension_spec_for,
    render_ascii,
    render_svg,
    select_chart,
    select_chart_type,
    to_vega_lite,
    view_to_chart_spec,
)
from repro.viz.spec import single_series_spec
from repro.viz.vega import to_vega_lite_json


@pytest.fixture
def scored_view():
    return ScoredView(
        spec=ViewSpec("store", "amount", "sum"),
        utility=0.42,
        groups=["a", "b", "c"],
        target_distribution=np.array([0.7, 0.2, 0.1]),
        comparison_distribution=np.array([0.2, 0.3, 0.5]),
        target_values=np.array([70.0, 20.0, 10.0]),
        comparison_values=np.array([200.0, 300.0, 500.0]),
    )


def dim_spec(dtype=DataType.STR, semantic=None):
    return ColumnSpec("d", dtype, AttributeRole.DIMENSION, semantic)


class TestChartSpec:
    def test_view_translation(self, scored_view):
        spec = view_to_chart_spec(scored_view, dim_spec())
        assert spec.title == "sum(amount) by store"
        assert len(spec.series) == 2
        assert spec.series[0].values == (70.0, 20.0, 10.0)
        assert any("utility=0.42" in note for note in spec.notes)

    def test_normalized_mode(self, scored_view):
        spec = view_to_chart_spec(scored_view, dim_spec(), normalized=True)
        assert spec.y_label == "probability mass"
        assert spec.series[0].values[0] == pytest.approx(0.7)

    def test_series_length_validated(self):
        with pytest.raises(ReproError, match="values"):
            ChartSpec(
                chart_type=ChartType.BAR,
                title="t",
                x_label="x",
                y_label="y",
                categories=("a", "b"),
                series=(Series("s", (1.0,)),),
            )

    def test_needs_series(self):
        with pytest.raises(ReproError, match="series"):
            ChartSpec(ChartType.BAR, "t", "x", "y", ("a",), ())

    def test_single_series_helper(self):
        spec = single_series_spec("t", "x", "y", ["a"], [1.0])
        assert spec.chart_type is ChartType.BAR


class TestChartSelection:
    def test_geography_maps(self):
        assert (
            select_chart_type(dim_spec(semantic="geography"), 4) is ChartType.MAP
        )

    def test_time_semantic_lines(self):
        assert select_chart_type(dim_spec(semantic="time"), 4) is ChartType.LINE

    def test_date_dtype_lines(self):
        assert select_chart_type(dim_spec(DataType.DATE), 30) is ChartType.LINE

    def test_high_cardinality_numeric_lines(self):
        assert select_chart_type(dim_spec(DataType.INT), 30) is ChartType.LINE

    def test_low_cardinality_numeric_bars(self):
        assert select_chart_type(dim_spec(DataType.INT), 5) is ChartType.GROUPED_BAR

    def test_categorical_bars(self):
        assert select_chart_type(dim_spec(), 8) is ChartType.GROUPED_BAR

    def test_none_spec_fallback(self):
        assert select_chart_type(None, 8) is ChartType.GROUPED_BAR


class TestSelectChart:
    """The rationale-carrying selector behind the v3 render block."""

    def test_delegation_preserves_legacy_choices(self):
        for spec, n_groups in (
            (dim_spec(semantic="geography"), 4),
            (dim_spec(DataType.DATE), 30),
            (dim_spec(DataType.INT), 30),
            (dim_spec(), 8),
            (None, 8),
        ):
            assert (
                select_chart(spec, n_groups, n_series=2).chart_type
                is select_chart_type(spec, n_groups)
            )

    def test_single_low_cardinality_series_is_pie_eligible(self):
        choice = select_chart(dim_spec(), 4, n_series=1)
        assert choice.chart_type is ChartType.PIE
        assert "part-to-whole" in choice.rationale

    def test_rationales_name_their_rule(self):
        assert "geography" in select_chart(
            dim_spec(semantic="geography"), 4
        ).rationale
        assert "DATE" in select_chart(dim_spec(DataType.DATE), 30).rationale
        assert "no schema context" in select_chart(None, 8).rationale

    def test_none_spec_single_series_plain_bar(self):
        assert select_chart(None, 8, n_series=1).chart_type is ChartType.BAR


class TestDimensionSpecFor:
    def test_resolves_from_schema(self, sales_table):
        spec = ViewSpec("store", "amount", "sum")
        resolved = dimension_spec_for(spec, sales_table.schema)
        assert resolved is not None and resolved.name == "store"

    def test_none_schema_degrades(self):
        assert dimension_spec_for(ViewSpec("d", "m", "sum"), None) is None

    def test_missing_column_degrades(self, sales_table):
        assert (
            dimension_spec_for(ViewSpec("gone", "m", "sum"), sales_table.schema)
            is None
        )

    def test_multiview_spec_degrades(self, sales_table):
        spec = ViewSpec(("store", "month"), "amount", "sum")
        assert dimension_spec_for(spec, sales_table.schema) is None


class TestAsciiRenderer:
    def test_contains_categories_and_legend(self, scored_view):
        text = render_ascii(view_to_chart_spec(scored_view, dim_spec()))
        for category in ("a", "b", "c"):
            assert f"\n{category}" in "\n" + text
        assert "query subset" in text and "entire dataset" in text

    def test_zero_values_no_crash(self):
        spec = single_series_spec("t", "x", "y", ["a"], [0.0])
        assert "0" in render_ascii(spec)

    def test_width_validation(self, scored_view):
        with pytest.raises(ValueError):
            render_ascii(view_to_chart_spec(scored_view, dim_spec()), width=2)


class TestSvgRenderer:
    def test_valid_svg_document(self, scored_view):
        svg = render_svg(view_to_chart_spec(scored_view, dim_spec()))
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<rect" in svg  # bars drawn
        assert "sum(amount) by store" in svg

    def test_line_chart_has_polyline(self, scored_view):
        spec = view_to_chart_spec(scored_view, dim_spec(semantic="time"))
        assert spec.chart_type is ChartType.LINE
        assert "<polyline" in render_svg(spec)

    def test_map_falls_back_with_note(self, scored_view):
        spec = view_to_chart_spec(scored_view, dim_spec(semantic="geography"))
        svg = render_svg(spec)
        assert "rendered" in svg and "as bars" in svg

    def test_escapes_special_characters(self):
        spec = single_series_spec("a < b & c", "x", "y", ["<cat>"], [1.0])
        svg = render_svg(spec)
        assert "a &lt; b &amp; c" in svg
        assert "&lt;cat&gt;" in svg

    def test_negative_values_render(self):
        spec = single_series_spec("t", "x", "y", ["a", "b"], [-5.0, 5.0])
        assert "<rect" in render_svg(spec)


class TestVegaEmitter:
    def test_grouped_bar_encoding(self, scored_view):
        vega = to_vega_lite(view_to_chart_spec(scored_view, dim_spec()))
        assert vega["mark"] == "bar"
        assert "xOffset" in vega["encoding"]
        assert len(vega["data"]["values"]) == 6  # 3 categories x 2 series

    def test_line_mark(self, scored_view):
        spec = view_to_chart_spec(scored_view, dim_spec(semantic="time"))
        assert to_vega_lite(spec)["mark"] == "line"

    def test_json_serializable(self, scored_view):
        text = to_vega_lite_json(view_to_chart_spec(scored_view, dim_spec()))
        parsed = json.loads(text)
        assert parsed["$schema"].endswith("v5.json")


class TestExport:
    def test_export_writes_all_formats(self, memory_backend, tmp_path):
        from repro.core.recommender import SeeDB
        from repro.db.expressions import col
        from repro.db.query import RowSelectQuery
        from repro.viz.export import export_recommendations

        seedb = SeeDB(memory_backend)
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave"), k=2
            )
        )
        schema = memory_backend.schema("sales")
        paths = export_recommendations(result, tmp_path / "charts", schema)
        assert len(paths) == 6  # 2 views x 3 formats
        suffixes = {p.suffix for p in paths}
        assert suffixes == {".svg", ".json", ".txt"}
        for path in paths:
            assert path.exists() and path.stat().st_size > 0

    def test_export_without_schema_falls_back_not_crashes(
        self, memory_backend, tmp_path
    ):
        """Regression (chart_select/export drift): a None schema must
        degrade every chart to the bar fallback, never raise."""
        from repro.core.recommender import SeeDB
        from repro.db.expressions import col
        from repro.db.query import RowSelectQuery
        from repro.viz.export import export_recommendations

        result = SeeDB(memory_backend).recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave"), k=2
            )
        )
        paths = export_recommendations(
            result, tmp_path / "bare", schema=None, formats=("vega",)
        )
        assert len(paths) == 2
        for path in paths:
            vega = json.loads(path.read_text())
            assert vega["mark"] == "bar"

    def test_export_tolerates_multiview_specs(self, scored_view, tmp_path):
        """Multi-attribute views (no single column to look up) export as
        bar charts over their joined keys instead of failing."""
        import dataclasses

        from repro.core.result import RecommendationResult
        from repro.util.timing import Stopwatch
        from repro.viz.export import export_recommendations

        view = dataclasses.replace(
            scored_view, spec=ViewSpec(("store", "month"), "amount", "sum")
        )
        result = RecommendationResult(
            table="sales",
            predicate_description="product = 'Laserwave'",
            metric="js",
            k=1,
            recommendations=[view],
            utilities={},
            all_scored={},
            prune_reports=[],
            stopwatch=Stopwatch(),
            n_candidate_views=1,
            n_executed_views=1,
            n_queries=1,
        )
        paths = export_recommendations(
            result, tmp_path / "multi", formats=("vega",)
        )
        assert len(paths) == 1
        spec = json.loads(paths[0].read_text())
        assert spec["title"] == "sum(amount) by (store, month)"
        assert spec["encoding"]["x"]["title"] == "store x month"
