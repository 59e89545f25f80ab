"""Candidate view-space enumeration.

The space is the cross product ``A × M × F`` (dimensions × measures ×
aggregate functions), plus one ``count(*)`` view per dimension when enabled.
§1 challenge (b) notes the space "increases as the square of the number of
attributes": with ``n`` attributes split between dimensions and measures,
``|A|·|M|`` is maximized at ``(n/2)²`` — benchmark E6 verifies exactly this
quadratic growth.

:func:`enumerate_views` with ``n_dimensions`` > 1 is the §2
generalization: views grouping by a tuple of that many attributes, which
the Enumerate phase builds when ``SeeDBConfig.n_dimensions`` asks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.db.schema import Schema
from repro.model.view import ViewSpec
from repro.util.errors import ConfigError

#: Aggregates enumerated by default. The full set in
#: :data:`repro.db.aggregates.AGGREGATE_FUNCTIONS` is larger; sum/avg are
#: the paper's running examples and count adds distribution-of-rows views.
DEFAULT_FUNCTIONS: tuple[str, ...] = ("sum", "avg")


def enumerate_views(
    schema: Schema,
    functions: Sequence[str] = DEFAULT_FUNCTIONS,
    include_count: bool = True,
    dimensions: Sequence[str] | None = None,
    measures: Sequence[str] | None = None,
    n_dimensions: int = 1,
) -> list[ViewSpec]:
    """All candidate views of ``schema``.

    ``dimensions``/``measures`` restrict the attribute sets (used by
    drill-down style interactions); by default all schema dimensions and
    measures participate. With ``n_dimensions`` > 1 each view groups by a
    combination of that many dimensions instead (§2's multi-attribute
    views): the space is C(|A|, k) x |M| x |F|, combinatorially larger than
    the single-attribute one, which is why the paper's prototype stops at
    k=1 and the generalization is opt-in. Order is deterministic:
    dimension-major (combinations in schema order), then measure, then
    function.
    """
    if not functions and not include_count:
        raise ConfigError("no aggregate functions selected")
    if n_dimensions < 1:
        raise ConfigError("n_dimensions must be >= 1")
    dimension_names = _resolve(schema, dimensions, [s.name for s in schema.dimensions])
    measure_names = _resolve(schema, measures, [s.name for s in schema.measures])
    groupings = (
        dimension_names
        if n_dimensions == 1
        else list(combinations(dimension_names, n_dimensions))
    )

    views: list[ViewSpec] = []
    for dimension in groupings:
        if include_count:
            views.append(ViewSpec(dimension, None, "count"))
        for measure in measure_names:
            for func in functions:
                views.append(ViewSpec(dimension, measure, func))
    return views


def view_space_size(
    n_dimensions: int,
    n_measures: int,
    n_functions: int = len(DEFAULT_FUNCTIONS),
    include_count: bool = True,
) -> int:
    """Closed-form size of the view space (must equal len(enumerate_views))."""
    return n_dimensions * n_measures * n_functions + (
        n_dimensions if include_count else 0
    )


def split_predicate_dimensions(
    views: "list[ViewSpec]", predicate
) -> "tuple[list[ViewSpec], list[tuple[ViewSpec, str]]]":
    """Separate views grouping by a predicate-constrained dimension.

    A view grouped by an attribute the analyst's query filters on (e.g.
    ``... by product`` under ``product = 'Laserwave'``) deviates maximally
    by construction — the target has exactly one group — and would crowd
    every real finding out of the top-k. The Query Generator therefore
    removes such views up front; a multi-attribute view goes when any of
    its keys is constrained. Returns ``(kept, excluded_with_reason)``.
    """
    if predicate is None:
        return list(views), []
    constrained = predicate.referenced_columns()
    kept: list[ViewSpec] = []
    excluded: list[tuple[ViewSpec, str]] = []
    for view in views:
        key = next((key for key in view.keys if key in constrained), None)
        if key is None:
            kept.append(view)
        else:
            excluded.append(
                (
                    view,
                    f"dimension {key!r} is constrained by the "
                    "analyst's predicate (trivially deviating)",
                )
            )
    return kept, excluded


def _resolve(
    schema: Schema, requested: Sequence[str] | None, default: list[str]
) -> list[str]:
    if requested is None:
        return default
    for name in requested:
        schema[name]  # raises SchemaError for unknown columns
    return list(requested)
