"""Serving-side visualization assembly: the v3 ``render`` block's engine.

This is the one place recommendation views become response-ready chart
frames. The :class:`~repro.engine.phases.RenderPhase` calls it for the
final top-k, the streaming path calls it per progressive round for the
current estimate, and both produce the same frames for the same views —
which is what makes a stream's final round bit-identical to the blocking
result.

A frame is plain JSON: the paired view's label and rank, the chart type
with the selector's rationale (DataVizard-style presentation rules), and
the artifact itself — a Vega-Lite v5 spec or a standalone SVG document.
Frames attach to :class:`~repro.core.result.RecommendationResult` and ride
every transport (result LRU, coalesced joiners, the cluster reply pipe)
without re-rendering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.viz.chart_select import dimension_spec_for, select_chart
from repro.viz.spec import view_to_chart_spec
from repro.viz.svg import render_svg
from repro.viz.vega import to_vega_lite

if TYPE_CHECKING:
    from repro.db.schema import Schema
    from repro.model.view import ScoredView

#: SeeDB charts always plot target vs reference side by side.
_N_SERIES = 2


def build_visualizations(
    views: "Sequence[ScoredView]",
    schema: "Schema | None",
    render: "dict | None",
) -> list[dict]:
    """JSON-safe visualization frames for ``views`` (best first).

    ``render`` is a normalized ``options.render`` block (see
    :data:`repro.api.request.RENDER_OPTION_DEFAULTS`); a missing key falls
    back to its default, and ``format == "none"`` returns no frames.
    ``schema`` is the base table's — chart selection degrades to the
    bar fallback for any view whose dimension it cannot resolve.
    """
    render = render or {}
    fmt = render.get("format", "none")
    if fmt == "none":
        return []
    theme = render.get("theme", "light")
    max_charts = render.get("max_charts")
    frames: list[dict] = []
    for rank, view in enumerate(views, start=1):
        if max_charts is not None and rank > max_charts:
            break
        dimension_spec = dimension_spec_for(view.spec, schema)
        choice = select_chart(dimension_spec, len(view.groups), _N_SERIES)
        chart = view_to_chart_spec(
            view, dimension_spec, chart_type=choice.chart_type
        )
        frame = {
            "rank": rank,
            "view": view.spec.label,
            "chart_type": choice.chart_type.value,
            "rationale": choice.rationale,
            "format": fmt,
        }
        if fmt == "vega-lite":
            frame["spec"] = to_vega_lite(chart, theme=theme)
        else:  # "svg" — the request validator admits nothing else
            frame["svg"] = render_svg(chart)
        frames.append(frame)
    return frames
