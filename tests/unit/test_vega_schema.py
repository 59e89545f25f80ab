"""Unit tests: the vendored Vega-Lite mini schema and its validator."""

from __future__ import annotations

import pytest

from repro.api import RecommendationRequest
from repro.viz.vega import to_vega_lite
from repro.viz.vega_schema import (
    VEGA_LITE_MINI_SCHEMA,
    validate,
    validate_vega_lite,
)

VALID_SPEC = {
    "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
    "title": "sum(amount) by store",
    "description": "utility=0.5",
    "data": {
        "values": [
            {"category": "Cambridge, MA", "series": "target", "value": 1.0},
            {"category": "Cambridge, MA", "series": "reference", "value": 2.0},
        ]
    },
    "mark": "bar",
    "encoding": {
        "x": {"field": "category", "type": "nominal", "sort": None},
        "y": {"field": "value", "type": "quantitative"},
        "color": {"field": "series"},
        "xOffset": {"field": "series"},
    },
    "config": {"background": "#ffffff"},
}


def spec_with(**overrides) -> dict:
    import copy

    spec = copy.deepcopy(VALID_SPEC)
    spec.update(overrides)
    return spec


class TestValidator:
    def test_valid_spec_passes(self):
        assert validate_vega_lite(VALID_SPEC) == []

    def test_const_mismatch_names_the_schema_url(self):
        errors = validate_vega_lite(spec_with(**{"$schema": "v4.json"}))
        assert any("$.$schema" in e for e in errors)

    def test_mark_enum_is_closed(self):
        errors = validate_vega_lite(spec_with(mark="area"))
        assert any("not in enum" in e for e in errors)

    def test_missing_required_channel_reported(self):
        bad = spec_with(encoding={"x": {"field": "category"}})
        errors = validate_vega_lite(bad)
        assert any("missing required property 'y'" in e for e in errors)

    def test_additional_properties_rejected(self):
        errors = validate_vega_lite(spec_with(interactive=True))
        assert any("unexpected property 'interactive'" in e for e in errors)

    def test_row_value_type_union_admits_null_but_not_strings(self):
        null_row = spec_with(
            data={"values": [{"category": "a", "series": "s", "value": None}]}
        )
        assert validate_vega_lite(null_row) == []
        bad_row = spec_with(
            data={"values": [{"category": "a", "series": "s", "value": "x"}]}
        )
        errors = validate_vega_lite(bad_row)
        assert any("data.values[0].value" in e for e in errors)

    def test_ref_resolution_validates_channels(self):
        bad = spec_with(
            encoding={
                "x": {"field": "category", "type": "diagonal"},
                "y": {"field": "value"},
            }
        )
        errors = validate_vega_lite(bad)
        assert any("encoding.x.type" in e for e in errors)

    def test_non_local_ref_rejected(self):
        with pytest.raises(ValueError):
            validate({}, {"$ref": "http://example.com/schema"})

    def test_error_paths_are_rooted(self):
        errors = validate("not a dict", VEGA_LITE_MINI_SCHEMA)
        assert errors == [
            "$: expected type 'object', got str"
        ]


class TestEmittedSpecsConform:
    """Every spec the viz layer produces must satisfy its own contract."""

    @pytest.mark.parametrize("theme", (None, "light", "dark"))
    def test_chart_specs_validate(self, memory_backend, theme, sales_table):
        from repro.core.recommender import SeeDB
        from repro.viz.chart_select import dimension_spec_for
        from repro.viz.spec import view_to_chart_spec

        result = SeeDB(memory_backend).recommend(
            RecommendationRequest.from_sql(
                "SELECT * FROM sales WHERE product = 'Laserwave'"
            )
        )
        assert result.recommendations
        for view in result.recommendations:
            chart = view_to_chart_spec(
                view, dimension_spec_for(view.spec, sales_table.schema)
            )
            assert validate_vega_lite(to_vega_lite(chart, theme=theme)) == []
