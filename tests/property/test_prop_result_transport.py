"""Property tests: the cluster's result transport is a bit-exact bijection.

The cluster tier's coalescing guarantee ("identical concurrent requests
get bit-identical results, whichever process executed them") reduces to
``decode_result(encode_result(r))`` being lossless for everything an
engine result can carry: every aggregate dtype (floats with NaN, ints,
bools, datetime64 with NaT, object columns with NULLs), ``date`` /
``datetime`` group literals, tuple groups from multi-attribute views,
exact (not approximate) float utilities, the planner's decision record,
render frames, and the partial-result fields. The round trip is checked
over ``dataclasses.fields(RecommendationResult)``, so a field added later
is covered without editing this file. ``ViewSpec`` is a frozen slots
dataclass that pickles as a constructor call; this suite is what shows it
round-trips on every interpreter the tier-1 matrix runs.
"""

from __future__ import annotations

import dataclasses
import struct
from datetime import date, datetime

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.result import RecommendationResult
from repro.model.view import ScoredView, ViewSpec
from repro.pruning.base import PruneReport
from repro.service import decode_result, encode_result
from repro.util.timing import Stopwatch

DIMENSIONS = ("region", "product", "channel", "store")
MEASURES = ("sales", "profit", "units")

#: Group literal pool covering every value family the engine emits from
#: real backends: strings, ints, floats, bools, NULL, calendar types.
group_values = st.one_of(
    st.text(min_size=0, max_size=8),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.none(),
    st.dates(min_value=date(1970, 1, 1), max_value=date(2100, 1, 1)),
    st.datetimes(
        min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1)
    ),
)

utilities = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)

seconds = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def numeric_arrays(draw, size: int) -> np.ndarray:
    """An aligned aggregate-value array in one of the raw-buffer dtypes."""
    dtype = draw(
        st.sampled_from(["f8", "f4", "i8", "i4", "u8", "b1", "M8[D]", "M8[s]"])
    )
    if dtype == "b1":
        values = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return np.array(values, dtype=bool)
    if dtype.startswith("M8"):
        day = st.integers(min_value=0, max_value=40000)
        values = draw(
            st.lists(st.one_of(day, st.none()), min_size=size, max_size=size)
        )
        return np.array(
            [np.datetime64("NaT") if v is None else v for v in values],
            dtype=dtype,
        )
    if dtype.startswith(("i", "u")):
        info = np.iinfo(dtype)
        values = draw(
            st.lists(
                st.integers(min_value=int(info.min), max_value=int(info.max)),
                min_size=size,
                max_size=size,
            )
        )
        return np.array(values, dtype=dtype)
    values = draw(
        st.lists(
            st.one_of(
                st.floats(allow_infinity=False, width=32),
                st.just(float("nan")),
            ),
            min_size=size,
            max_size=size,
        )
    )
    return np.array(values, dtype=dtype)


@st.composite
def value_arrays(draw, size: int) -> np.ndarray:
    """Aggregate values: either a raw-buffer dtype or an object column
    with NULLs (what a SQL backend yields for a nullable column)."""
    if draw(st.booleans()):
        return draw(numeric_arrays(size))
    values = draw(st.lists(group_values, min_size=size, max_size=size))
    return np.array(values, dtype=object)


@st.composite
def scored_views(draw, index: int) -> ScoredView:
    """The ``index``-th view of a result; specs never collide across
    indices, so every view owns its ``all_scored`` slot."""
    multi = draw(st.booleans())
    measure = draw(st.sampled_from(MEASURES + (None,)))
    func = "count" if measure is None else draw(st.sampled_from(["sum", "avg"]))
    size = draw(st.integers(0, 5))
    if multi:
        dims = (DIMENSIONS[index], DIMENSIONS[(index + 1) % len(DIMENSIONS)])
        spec = ViewSpec(dims, measure, func)
        groups = [
            tuple(draw(st.lists(group_values, min_size=2, max_size=2)))
            for _ in range(size)
        ]
    else:
        spec = ViewSpec(DIMENSIONS[index], measure, func)
        groups = draw(st.lists(group_values, min_size=size, max_size=size))
    distributions = st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.just(float("nan")),
        ),
        min_size=size,
        max_size=size,
    )
    return ScoredView(
        spec=spec,
        utility=draw(utilities),
        groups=groups,
        target_distribution=np.array(draw(distributions), dtype=np.float64),
        comparison_distribution=np.array(draw(distributions), dtype=np.float64),
        target_values=draw(value_arrays(size)),
        comparison_values=draw(value_arrays(size)),
    )


#: The planner's decision record (``PlanDecision.to_dict()`` shape).
plan_decisions = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["combined", "flag", "separate"]),
            "cost_based": st.booleans(),
            "predicted": st.dictionaries(
                st.sampled_from(["rows", "groups", "statements"]),
                seconds,
            ),
            "predicted_seconds": seconds,
            "candidate_seconds": st.dictionaries(st.text(max_size=8), seconds),
            "coefficients": st.one_of(
                st.none(), st.dictionaries(st.text(max_size=8), seconds)
            ),
            "sample_fraction": st.one_of(st.none(), st.just(0.25)),
            "recommended_workers": st.integers(1, 8),
            "observed_seconds": st.one_of(st.none(), seconds),
        }
    ),
)

#: Render frames: JSON-safe dicts, one per recommended view.
visualization_frames = st.one_of(
    st.none(),
    st.lists(
        st.fixed_dictionaries(
            {
                "rank": st.integers(1, 4),
                "view": st.text(max_size=12),
                "chart_type": st.sampled_from(["bar", "line", "pie", "map"]),
                "format": st.sampled_from(["vega-lite", "svg"]),
                "spec": st.dictionaries(
                    st.text(max_size=6),
                    st.one_of(st.integers(), st.text(max_size=6), seconds),
                    max_size=3,
                ),
            }
        ),
        max_size=3,
    ),
)


@st.composite
def results(draw) -> RecommendationResult:
    n_views = draw(st.integers(1, 4))
    views = [draw(scored_views(i)) for i in range(n_views)]
    k = draw(st.integers(1, n_views))
    partial = draw(st.booleans())
    return RecommendationResult(
        table=draw(st.sampled_from(["orders", "census"])),
        predicate_description=draw(st.text(max_size=20)),
        k=k,
        metric=draw(st.sampled_from(["js", "emd", "euclidean"])),
        recommendations=views[:k],
        utilities={view.spec: view.utility for view in views},
        all_scored={view.spec: view for view in views},
        prune_reports=[
            PruneReport(
                rule="variance",
                examined=n_views,
                pruned=[(views[-1].spec, "flat")],
            )
        ],
        stopwatch=Stopwatch(
            phases={"execute": draw(utilities), "score": draw(utilities)}
        ),
        n_candidate_views=n_views,
        n_executed_views=n_views,
        n_queries=draw(st.integers(0, 100)),
        sample_fraction=draw(st.one_of(st.none(), st.just(0.25))),
        plan_description=draw(st.sampled_from(["combined", "sequential"])),
        plan_decision=draw(plan_decisions),
        reference_description=draw(st.sampled_from(["table", "complement"])),
        partial=partial,
        partial_epsilon=(
            draw(st.floats(min_value=0.0, max_value=1.0)) if partial else None
        ),
        visualizations=draw(visualization_frames),
    )


def _edge_result() -> RecommendationResult:
    """Values a draw rarely or never produces: a utility with no short
    decimal form, a ``datetime64[D]`` column with NaT, an object column
    holding None, and tuple group keys."""
    shown = ScoredView(
        spec=ViewSpec(("region", "product"), "sales", "sum"),
        utility=float(np.nextafter(0.1, 0.0)),
        groups=[("east", 1), (date(2014, 9, 1), None)],
        target_distribution=np.array([0.25, 0.75]),
        comparison_distribution=np.array([np.nan, 1.0]),
        target_values=np.array(["2014-09-01", "NaT"], dtype="datetime64[D]"),
        comparison_values=np.array(["x", None], dtype=object),
    )
    return RecommendationResult(
        table="orders",
        predicate_description="product = 'p0'",
        k=1,
        metric="js",
        recommendations=[shown],
        utilities={shown.spec: shown.utility},
        all_scored={shown.spec: shown},
        prune_reports=[],
        stopwatch=Stopwatch(phases={"execute": 0.25}),
        n_candidate_views=1,
        n_executed_views=1,
        n_queries=1,
        plan_decision={"kind": "combined", "predicted_seconds": 0.01},
        partial=True,
        partial_epsilon=0.05,
    )


def assert_array_identical(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    if expected.dtype == object:
        for got_item, expected_item in zip(got, expected):
            assert_identical(got_item, expected_item)
    elif expected.dtype.kind == "f":
        # Bit-exact, not almost-equal: NaNs equal, -0.0 preserved.
        assert np.array_equal(
            got.view(np.uint8), expected.view(np.uint8)
        )
    elif expected.dtype.kind == "M":
        nat = np.isnat(expected)
        assert np.array_equal(np.isnat(got), nat)
        assert np.array_equal(got[~nat], expected[~nat])
    else:
        assert np.array_equal(got, expected)


def assert_identical(got, expected) -> None:
    """Same type, same order, same bits — recursively."""
    assert type(got) is type(expected)
    if isinstance(expected, np.ndarray):
        assert_array_identical(got, expected)
    elif dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            assert_identical(
                getattr(got, field.name), getattr(expected, field.name)
            )
    elif isinstance(expected, dict):
        assert list(got) == list(expected)
        for key, value in expected.items():
            assert_identical(got[key], value)
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected)
        for got_item, expected_item in zip(got, expected):
            assert_identical(got_item, expected_item)
    elif isinstance(expected, float):
        assert struct.pack("<d", got) == struct.pack("<d", expected)
    else:
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(result=results())
@example(result=_edge_result())
def test_round_trip_is_bit_exact(result):
    decoded = decode_result(encode_result(result))
    for field in dataclasses.fields(RecommendationResult):
        assert_identical(
            getattr(decoded, field.name), getattr(result, field.name)
        )
    # A shown view crosses once: the recommendation and its all_scored
    # entry are still one object.
    for view in decoded.recommendations:
        assert decoded.all_scored[view.spec] is view
