"""Export recommended views as chart files.

"Once the analyst has identified interesting views, the analyst may then
... share these views with others" (§1 step 4). This writes each
recommended view as SVG, Vega-Lite JSON, and plain text under a directory.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.result import RecommendationResult
from repro.db.schema import Schema
from repro.viz.chart_select import dimension_spec_for
from repro.viz.render_text import render_ascii
from repro.viz.spec import view_to_chart_spec
from repro.viz.svg import render_svg
from repro.viz.vega import to_vega_lite_json


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def export_recommendations(
    result: RecommendationResult,
    directory: "str | Path",
    schema: "Schema | None" = None,
    formats: tuple[str, ...] = ("svg", "vega", "txt"),
) -> list[Path]:
    """Write every recommended view to ``directory``; returns the paths.

    ``schema`` (of the base table) improves chart-type selection; without
    it every chart falls back to grouped bars.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for rank, view in enumerate(result.recommendations, start=1):
        # dimension_spec_for, not a direct schema[...] lookup: a
        # multi-attribute view has no single column to look up and must
        # export with the bar fallback instead of crashing.
        dimension_spec = dimension_spec_for(view.spec, schema)
        spec = view_to_chart_spec(view, dimension_spec)
        stem = f"{rank:02d}_{_slug(view.spec.label)}"
        if "svg" in formats:
            path = directory / f"{stem}.svg"
            path.write_text(render_svg(spec))
            written.append(path)
        if "vega" in formats:
            path = directory / f"{stem}.vl.json"
            path.write_text(to_vega_lite_json(spec))
            written.append(path)
        if "txt" in formats:
            path = directory / f"{stem}.txt"
            path.write_text(render_ascii(spec))
            written.append(path)
    return written
