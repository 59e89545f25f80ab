"""Rule-based chart-type selection (§3.2).

The frontend picks the visualization from the dimension's data type, its
distinct-value count, and its semantic tag — the three signals the paper
names. The rules are deliberately simple and transparent:

====================  ======================  ==================
dimension              condition               chart type
====================  ======================  ==================
semantic "geography"   —                       MAP
semantic "time"        —                       LINE
DATE dtype             —                       LINE
numeric dtype          > 12 distinct values    LINE
any                    <= 5 groups, 1 series   PIE-eligible (BAR by default)
otherwise              —                       GROUPED_BAR
====================  ======================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.schema import ColumnSpec, Schema
from repro.db.types import DataType
from repro.viz.spec import ChartType

#: Above this many distinct ordered values, bars become unreadable and a
#: line chart communicates the trend better.
LINE_THRESHOLD = 12

#: At or below this many groups, a single series reads as part-to-whole
#: and is pie-eligible (DataVizard's low-cardinality composition rule).
PIE_THRESHOLD = 5


@dataclass(frozen=True)
class ChartChoice:
    """A selected chart family plus the human-readable rule that chose it.

    The rationale travels to clients inside the v3 ``visualizations``
    response frames, so an analyst can see *why* a view rendered as a
    line rather than bars — the transparency DataVizard's
    presentation-recommendation rules are built around.
    """

    chart_type: ChartType
    rationale: str


def select_chart(
    dimension_spec: "ColumnSpec | None",
    n_groups: int,
    n_series: int = 1,
) -> ChartChoice:
    """Pick a chart for a view from its presentation signals.

    The three signals the paper names (§3.2: data type, distinct-value
    count, semantics) plus DataVizard's series-count rule. Evaluation
    order is specificity: semantic tags beat dtype, dtype beats
    cardinality, cardinality beats the bar fallback.
    """
    if dimension_spec is None:
        fallback = ChartType.GROUPED_BAR if n_series > 1 else ChartType.BAR
        return ChartChoice(
            fallback,
            "no schema context for the dimension; defaulting to bars",
        )
    if dimension_spec.semantic == "geography":
        return ChartChoice(
            ChartType.MAP,
            f"dimension {dimension_spec.name!r} is tagged 'geography'; "
            "values are regions",
        )
    if dimension_spec.semantic == "time":
        return ChartChoice(
            ChartType.LINE,
            f"dimension {dimension_spec.name!r} is tagged 'time'; a line "
            "shows the trend over an ordered axis",
        )
    if dimension_spec.dtype is DataType.DATE:
        return ChartChoice(
            ChartType.LINE,
            f"dimension {dimension_spec.name!r} is a DATE; a line shows "
            "the trend over an ordered axis",
        )
    if dimension_spec.dtype.is_numeric and n_groups > LINE_THRESHOLD:
        return ChartChoice(
            ChartType.LINE,
            f"numeric dimension with {n_groups} distinct values "
            f"(> {LINE_THRESHOLD}); bars would be unreadable",
        )
    if n_series == 1 and n_groups <= PIE_THRESHOLD:
        return ChartChoice(
            ChartType.PIE,
            f"single series over {n_groups} groups "
            f"(<= {PIE_THRESHOLD}); reads as part-to-whole",
        )
    if n_series > 1:
        return ChartChoice(
            ChartType.GROUPED_BAR,
            f"{n_series} series over {n_groups} categorical groups; "
            "grouped bars keep target and reference side by side",
        )
    return ChartChoice(
        ChartType.BAR,
        f"single series over {n_groups} categorical groups",
    )


def select_chart_type(
    dimension_spec: "ColumnSpec | None",
    n_groups: int,
) -> ChartType:
    """Pick a chart type for a view grouped by ``dimension_spec``.

    ``dimension_spec`` may be None when the caller lost schema context
    (e.g. charts built from bare tables); the fallback is a grouped bar.
    Kept as the stable pre-v3 entry point: SeeDB charts carry two series
    (target vs reference), so this delegates to :func:`select_chart` with
    ``n_series=2`` and returns exactly what it always did.
    """
    return select_chart(dimension_spec, n_groups, n_series=2).chart_type


def dimension_spec_for(view_spec, schema: "Schema | None") -> "ColumnSpec | None":
    """The :class:`ColumnSpec` of a view's grouping dimension, or None.

    Tolerates the contexts where schema knowledge degrades instead of
    crashing chart building: no schema at all, multi-attribute views (no
    single column to look up), and dimensions absent from ``schema``
    (derived or sampled tables whose column set drifted from the base
    table's).
    """
    if schema is None or len(view_spec.keys) != 1:
        return None
    dimension = view_spec.dimension
    return schema[dimension] if dimension in schema else None
