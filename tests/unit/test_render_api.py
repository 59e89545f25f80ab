"""Unit tests: the v3 ``options.render`` block end to end.

Validation of the block itself, the RenderPhase's frames on blocking
execution, wire serialization, and the cluster result codec carrying
frames across processes.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ApiError, RecommendationRequest
from repro.api.request import RENDER_OPTION_DEFAULTS
from repro.api.wire import result_to_json
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.service import decode_result, encode_result

SQL = "SELECT * FROM sales WHERE product = 'Laserwave'"


def request_with_render(render: dict, **kwargs) -> RecommendationRequest:
    return RecommendationRequest.from_sql(
        SQL, options={"render": render}, **kwargs
    )


class TestRenderValidation:
    def expect_api_error(self, render, code, field):
        with pytest.raises(ApiError) as excinfo:
            request_with_render(render)
        assert excinfo.value.code == code
        assert excinfo.value.field == field

    def test_block_must_be_a_mapping(self):
        self.expect_api_error(
            "vega-lite", "invalid_value", "options.render"
        )

    def test_unknown_key_named_with_its_path(self):
        self.expect_api_error(
            {"formt": "svg"}, "unknown_field", "options.render.formt"
        )

    def test_format_is_a_closed_enum(self):
        self.expect_api_error(
            {"format": "png"}, "invalid_value", "options.render.format"
        )

    def test_theme_is_a_closed_enum(self):
        self.expect_api_error(
            {"theme": "solarized"}, "invalid_value", "options.render.theme"
        )

    def test_max_charts_must_be_a_positive_int(self):
        for bad in (0, -1, 1.5, True, "3"):
            self.expect_api_error(
                {"max_charts": bad},
                "invalid_value",
                "options.render.max_charts",
            )

    def test_defaults_applied_on_resolve(self):
        resolved = request_with_render({"format": "svg"}).resolve(
            SeeDBConfig(k=2)
        )
        assert resolved.render["format"] == "svg"
        assert resolved.render["theme"] == RENDER_OPTION_DEFAULTS["theme"]
        assert resolved.render["max_charts"] is None


class TestRenderExecution:
    def seedb(self, backend) -> SeeDB:
        return SeeDB(backend, SeeDBConfig(k=2))

    def test_vega_lite_frames_for_every_topk_view(self, memory_backend):
        result = self.seedb(memory_backend).recommend(
            request_with_render({"format": "vega-lite"})
        )
        frames = result.visualizations
        assert frames is not None
        assert len(frames) == len(result.recommendations)
        for rank, (frame, view) in enumerate(
            zip(frames, result.recommendations), start=1
        ):
            assert frame["rank"] == rank
            assert frame["view"] == view.spec.label
            assert frame["format"] == "vega-lite"
            assert frame["rationale"]
            assert frame["spec"]["data"]["values"]
        assert "render" in result.stopwatch.phases

    def test_svg_format_emits_standalone_documents(self, memory_backend):
        result = self.seedb(memory_backend).recommend(
            request_with_render({"format": "svg"})
        )
        for frame in result.visualizations:
            assert frame["svg"].startswith("<svg")
            assert "spec" not in frame

    def test_max_charts_caps_the_frames_not_the_views(self, memory_backend):
        result = self.seedb(memory_backend).recommend(
            request_with_render({"format": "vega-lite", "max_charts": 1})
        )
        assert len(result.visualizations) == 1
        assert len(result.recommendations) == 2

    def test_theme_controls_the_config_block(self, memory_backend):
        dark = self.seedb(memory_backend).recommend(
            request_with_render({"format": "vega-lite", "theme": "dark"})
        )
        light = self.seedb(memory_backend).recommend(
            request_with_render({"format": "vega-lite", "theme": "light"})
        )
        assert dark.visualizations[0]["spec"]["config"]["background"] != (
            light.visualizations[0]["spec"]["config"]["background"]
        )

    def test_chart_choice_uses_schema_semantics(self, memory_backend):
        """The sales fixture tags store=geography and month=time; any
        frame over those dimensions must carry the semantic chart type
        and a rationale naming the rule."""
        result = self.seedb(memory_backend).recommend(
            RecommendationRequest.from_sql(
                SQL, k=10, options={"render": {"format": "vega-lite"}}
            )
        )
        by_dimension = {}
        for frame in result.visualizations:
            dimension = frame["view"].rsplit(" by ", 1)[-1]
            by_dimension.setdefault(dimension, frame)
        if "store" in by_dimension:
            assert by_dimension["store"]["chart_type"] == "map"
            assert "geography" in by_dimension["store"]["rationale"]
        if "month" in by_dimension:
            assert by_dimension["month"]["chart_type"] == "line"
            assert "time" in by_dimension["month"]["rationale"]


class TestWireAndTransports:
    def result_with_frames(self, memory_backend):
        return SeeDB(memory_backend, SeeDBConfig(k=2)).recommend(
            request_with_render({"format": "vega-lite"})
        )

    def test_result_to_json_carries_frames(self, memory_backend):
        payload = result_to_json(self.result_with_frames(memory_backend))
        decoded = json.loads(json.dumps(payload))
        assert decoded["visualizations"] == payload["visualizations"]
        assert len(decoded["visualizations"]) == 2

    def test_shm_codec_round_trips_frames(self, memory_backend):
        result = self.result_with_frames(memory_backend)
        decoded = decode_result(encode_result(result))
        assert decoded.visualizations == result.visualizations

    def test_shm_codec_round_trips_absent_frames(self, memory_backend):
        """A result without a render request decodes with no frames."""
        result = SeeDB(memory_backend, SeeDBConfig(k=2)).recommend(
            RecommendationRequest.from_sql(SQL)
        )
        assert result.visualizations is None
        decoded = decode_result(encode_result(result))
        assert decoded.visualizations is None
