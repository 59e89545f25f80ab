"""Chart specifications: the renderer-independent description of a plot."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.db.schema import ColumnSpec
from repro.model.view import ScoredView
from repro.util.errors import ReproError


class ChartType(enum.Enum):
    """Visualization families the chart selector can choose from."""

    BAR = "bar"
    GROUPED_BAR = "grouped_bar"
    LINE = "line"
    PIE = "pie"
    MAP = "map"  # geographic semantic; renderers fall back to bars


@dataclass(frozen=True)
class Series:
    """One named value series over the chart's category axis."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ReproError(f"series {self.name!r} has no values")


@dataclass(frozen=True)
class ChartSpec:
    """A complete, renderer-independent chart description."""

    chart_type: ChartType
    title: str
    x_label: str
    y_label: str
    categories: tuple[Any, ...]
    series: tuple[Series, ...]
    #: Free-form annotations (utility score, max-deviation group, ...).
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.series:
            raise ReproError("a chart needs at least one series")
        for series in self.series:
            if len(series.values) != len(self.categories):
                raise ReproError(
                    f"series {series.name!r} has {len(series.values)} values "
                    f"for {len(self.categories)} categories"
                )


def view_to_chart_spec(
    view: ScoredView,
    dimension_spec: "ColumnSpec | None" = None,
    normalized: bool = False,
    target_name: str = "query subset",
    comparison_name: str = "entire dataset",
    chart_type: "ChartType | None" = None,
) -> ChartSpec:
    """Translate a scored view into a chart spec.

    Shows target and comparison side by side — the comparison is what makes
    a recommended view interpretable (Figure 1 vs Figures 2/3 in the
    paper). ``normalized=True`` plots the probability distributions the
    utility was computed on instead of raw aggregate values. An explicit
    ``chart_type`` overrides the rule-based selector (callers that already
    ran :func:`~repro.viz.chart_select.select_chart` pass their choice so
    the chart and its recorded rationale cannot drift apart).
    """
    from repro.viz.chart_select import select_chart_type  # avoid cycle

    if normalized or view.target_values.size == 0:
        target_values = view.target_distribution
        comparison_values = view.comparison_distribution
        y_label = "probability mass"
    else:
        target_values = view.target_values
        comparison_values = view.comparison_values
        y_label = view.spec.aggregate.alias

    if chart_type is None:
        chart_type = select_chart_type(dimension_spec, len(view.groups))
    notes = (
        f"utility={view.utility:.4f}",
        f"max deviation at {view.max_deviation_group!r}",
    )
    return ChartSpec(
        chart_type=chart_type,
        title=view.spec.label,
        x_label=" x ".join(view.spec.keys),
        y_label=y_label,
        categories=tuple(view.groups),
        series=(
            Series(target_name, tuple(float(v) for v in target_values)),
            Series(comparison_name, tuple(float(v) for v in comparison_values)),
        ),
        notes=notes,
    )


def single_series_spec(
    title: str,
    x_label: str,
    y_label: str,
    categories: Sequence[Any],
    values: Sequence[float],
    chart_type: ChartType = ChartType.BAR,
) -> ChartSpec:
    """Spec for a plain single-series chart (e.g. paper Figure 1)."""
    return ChartSpec(
        chart_type=chart_type,
        title=title,
        x_label=x_label,
        y_label=y_label,
        categories=tuple(categories),
        series=(Series(y_label, tuple(float(v) for v in np.asarray(values))),),
    )
