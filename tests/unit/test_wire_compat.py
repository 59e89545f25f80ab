"""Wire compatibility: v1/v2 request bodies behave exactly as before v3.

The schema_version 3 bump added the ``options.render`` block and the
``visualizations`` response list. Old clients must notice nothing: this
suite proves version-1 and version-2 bodies still decode, canonicalize to
the same coalescing keys as a defaults-only current body, execute to
bit-identical response payloads, and never grow a ``visualizations`` key.
The version 4 bump removed two options, which every version now rejects;
version-3 bodies behave exactly as current ones otherwise.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ApiError, RecommendationRequest
from repro.api.request import ACCEPTED_SCHEMA_VERSIONS, SCHEMA_VERSION
from repro.api.wire import result_to_json
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB

SQL = "SELECT * FROM sales WHERE product = 'Laserwave'"

#: Response keys that legitimately vary between two identical executions:
#: the wall-clock timings, including the plan decision's observed seconds.
VOLATILE_KEYS = ("phase_seconds", "total_seconds")


def wire_body(version: int, **extra) -> dict:
    """The canonical wire body for SQL, stamped with ``version``."""
    wire = RecommendationRequest.from_sql(SQL, k=2).to_dict()
    wire["schema_version"] = version
    wire.update(extra)
    return wire


def stable(payload: dict) -> dict:
    """A response payload with run-to-run-volatile timing keys dropped."""
    payload = json.loads(json.dumps(payload))
    for key in VOLATILE_KEYS:
        payload.pop(key, None)
    if payload.get("plan_decision") is not None:
        payload["plan_decision"].pop("observed_seconds")
    return payload


class TestVersionAcceptance:
    def test_to_dict_emits_current_version(self):
        assert wire_body(SCHEMA_VERSION)["schema_version"] == 4

    @pytest.mark.parametrize("version", ACCEPTED_SCHEMA_VERSIONS)
    def test_all_published_versions_decode(self, version):
        request = RecommendationRequest.from_dict(wire_body(version))
        assert request.k == 2

    def test_unknown_version_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            RecommendationRequest.from_dict(wire_body(99))
        assert excinfo.value.code == "schema_version"

    @pytest.mark.parametrize("version", ACCEPTED_SCHEMA_VERSIONS)
    @pytest.mark.parametrize(
        "name, value", [("batch_scoring", False), ("binpack_exact_threshold", 5)]
    )
    def test_removed_options_are_unknown(self, version, name, value):
        with pytest.raises(ApiError) as excinfo:
            RecommendationRequest.from_dict(wire_body(version, options={name: value}))
        assert excinfo.value.code == "unknown_field"
        assert excinfo.value.field == f"options.{name}"


class TestCanonicalization:
    """v1–v3 bodies and defaults-only current bodies coalesce together."""

    def config(self) -> SeeDBConfig:
        return SeeDBConfig(k=2)

    def key_for(self, body: dict):
        request = RecommendationRequest.from_dict(body)
        return request.resolve(self.config()).key_parts()

    @pytest.mark.parametrize("version", (1, 2, 3))
    def test_old_versions_share_the_v3_coalescing_key(self, version):
        assert self.key_for(wire_body(version)) == self.key_for(
            wire_body(SCHEMA_VERSION)
        )

    def test_render_defaults_normalize_to_one_key(self):
        """Absent, ``{}``, and an explicit ``format: none`` block are the
        same request — they must share one cache/coalescing identity."""
        bare = self.key_for(wire_body(SCHEMA_VERSION))
        empty = self.key_for(
            wire_body(SCHEMA_VERSION, options={"render": {}})
        )
        explicit = self.key_for(
            wire_body(SCHEMA_VERSION, options={"render": {"format": "none"}})
        )
        assert bare == empty == explicit

    def test_rendering_requests_do_not_coalesce_with_plain_ones(self):
        rendered = self.key_for(
            wire_body(
                SCHEMA_VERSION, options={"render": {"format": "vega-lite"}}
            )
        )
        assert rendered != self.key_for(wire_body(SCHEMA_VERSION))


class TestExecutionUnchanged:
    @pytest.mark.parametrize("version", (1, 2, 3))
    def test_old_bodies_execute_bit_identically_to_v3(
        self, memory_backend, version
    ):
        seedb = SeeDB(memory_backend, SeeDBConfig(k=2))
        current = RecommendationRequest.from_dict(wire_body(SCHEMA_VERSION))
        # Both bodies run warm: a cold request also computes the table's
        # comparison sides, which only its n_queries shows.
        seedb.recommend(current)
        old = seedb.recommend(RecommendationRequest.from_dict(wire_body(version)))
        new = seedb.recommend(current)
        assert stable(result_to_json(old)) == stable(result_to_json(new))

    @pytest.mark.parametrize("version", ACCEPTED_SCHEMA_VERSIONS)
    def test_no_visualizations_key_without_a_render_request(
        self, memory_backend, version
    ):
        seedb = SeeDB(memory_backend, SeeDBConfig(k=2))
        result = seedb.recommend(
            RecommendationRequest.from_dict(wire_body(version))
        )
        payload = result_to_json(result)
        # Absent, not null: pre-v3 clients see the exact body shape they
        # always did.
        assert "visualizations" not in payload
        assert "render" not in result.stopwatch.phases
