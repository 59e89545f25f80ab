"""Property tests: the shared-memory result codec is a bit-exact bijection.

The cluster tier's coalescing guarantee ("identical concurrent requests
get bit-identical results, whichever process executed them") reduces to
this codec being lossless for everything an engine result can carry:
every aggregate dtype (floats with NaN, ints, bools, datetime64 with
NaT, object columns with NULLs), ``date``/``datetime`` group literals,
tuple groups from multi-attribute views, and exact (not approximate)
float utilities.
"""

from __future__ import annotations

from datetime import date, datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiview import MultiViewSpec
from repro.core.result import RecommendationResult
from repro.core.view import ScoredView, ViewSpec
from repro.pruning.base import PruneReport
from repro.service.shm import decode_result, encode_result
from repro.util.timing import Stopwatch

DIMENSIONS = ("region", "product", "channel", "store")
MEASURES = ("sales", "profit", "units")

#: Group literal pool covering every value family the engine emits from
#: real backends: strings, ints, floats, bools, NULL, calendar types, and
#: the tagged wire forms ($date and friends) that must survive transport.
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
    multi = draw(st.booleans())
    measure = draw(st.sampled_from(MEASURES + (None,)))
    func = "count" if measure is None else draw(st.sampled_from(["sum", "avg"]))
    if multi:
        dims = DIMENSIONS[index % 2: index % 2 + 2]
        spec = MultiViewSpec(dimensions=dims, measure=measure, func=func)
        size = draw(st.integers(0, 5))
        groups = [
            tuple(draw(st.lists(group_values, min_size=2, max_size=2)))
            for _ in range(size)
        ]
    else:
        spec = ViewSpec(DIMENSIONS[index % len(DIMENSIONS)], measure, func)
        size = draw(st.integers(0, 5))
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


@st.composite
def results(draw) -> RecommendationResult:
    n_views = draw(st.integers(1, 4))
    views = [draw(scored_views(i)) for i in range(n_views)]
    k = draw(st.integers(1, n_views))
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
        reference_description=draw(st.sampled_from(["table", "complement"])),
    )


def assert_array_identical(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    if expected.dtype == object:
        for got_item, expected_item in zip(got, expected):
            if isinstance(expected_item, float) and np.isnan(expected_item):
                assert isinstance(got_item, float) and np.isnan(got_item)
            else:
                assert got_item == expected_item
                assert type(got_item) is type(expected_item)
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


def assert_view_identical(got: ScoredView, expected: ScoredView) -> None:
    assert got.spec == expected.spec
    assert type(got.spec) is type(expected.spec)
    assert got.utility == expected.utility  # exact float equality
    assert len(got.groups) == len(expected.groups)
    for got_group, expected_group in zip(got.groups, expected.groups):
        assert got_group == expected_group
        assert type(got_group) is type(expected_group)
    assert_array_identical(got.target_distribution, expected.target_distribution)
    assert_array_identical(
        got.comparison_distribution, expected.comparison_distribution
    )
    assert_array_identical(got.target_values, expected.target_values)
    assert_array_identical(got.comparison_values, expected.comparison_values)


@settings(max_examples=60, deadline=None)
@given(result=results())
def test_round_trip_is_bit_exact(result):
    decoded = decode_result(encode_result(result))
    assert decoded.table == result.table
    assert decoded.predicate_description == result.predicate_description
    assert (decoded.k, decoded.metric) == (result.k, result.metric)
    assert len(decoded.recommendations) == len(result.recommendations)
    for got, expected in zip(decoded.recommendations, result.recommendations):
        assert_view_identical(got, expected)
    assert list(decoded.utilities.items()) == list(result.utilities.items())
    assert list(decoded.all_scored) == list(result.all_scored)
    for got, expected in zip(
        decoded.all_scored.values(), result.all_scored.values()
    ):
        assert_view_identical(got, expected)
    report = decoded.prune_reports[0]
    assert report.rule == "variance"
    assert report.pruned == result.prune_reports[0].pruned
    assert decoded.stopwatch.phases == result.stopwatch.phases
    assert decoded.n_queries == result.n_queries
    assert decoded.sample_fraction == result.sample_fraction


@settings(max_examples=30, deadline=None)
@given(result=results())
def test_double_round_trip_is_stable(result):
    """encode∘decode is idempotent: the second pass reproduces the first
    byte-for-byte, so republishing a transported result is safe."""
    first = encode_result(result)
    second = encode_result(decode_result(first))
    assert first == second
