"""Property tests: the columnar Score path equals the per-view path.

The batch data plane (``align_batch`` → ``normalize_batch`` →
``distance_batch`` via ``ViewProcessor.score_batch``) must produce
bit-for-bit the same utilities, distributions, and group universes as the
classic per-view loop — across every metric, every normalization policy,
and the messy edges of real view results: missing groups on either side,
NaN aggregates, negative measures, and entirely empty views. The same
equivalence is asserted end-to-end through both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.core.view_processor import ViewProcessor
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import available_metrics, get_metric
from repro.model.view import RawViewData, ViewSpec

ALL_METRICS = tuple(available_metrics())

#: Mixed-type key pool: strings and ints exercise the deterministic
#: (type name, value) union ordering.
KEY_POOL = [f"g{i}" for i in range(8)] + [1, 2, 3]


def _values(draw, size: int, allow_negative: bool) -> list[float]:
    lower = -100.0 if allow_negative else 0.0
    element = st.one_of(
        st.floats(min_value=lower, max_value=100.0, allow_nan=False),
        st.just(float("nan")),
        st.just(0.0),
    )
    return draw(st.lists(element, min_size=size, max_size=size))


@st.composite
def view_workload(draw, allow_negative: bool = True) -> list[RawViewData]:
    """Raw views over 1-2 dimensions with independent target/comparison
    key sets (so group alignment actually has work to do)."""
    raws: list[RawViewData] = []
    n_dimensions = draw(st.integers(1, 2))
    for d in range(n_dimensions):
        target_keys = draw(
            st.lists(st.sampled_from(KEY_POOL), unique=True, max_size=6)
        )
        comparison_keys = draw(
            st.lists(st.sampled_from(KEY_POOL), unique=True, max_size=6)
        )
        n_views = draw(st.integers(1, 3))
        for m in range(n_views):
            raws.append(
                RawViewData(
                    spec=ViewSpec(f"d{d}", f"m{m}", "sum"),
                    target_keys=target_keys,
                    target_values=np.asarray(
                        _values(draw, len(target_keys), allow_negative)
                    ),
                    comparison_keys=comparison_keys,
                    comparison_values=np.asarray(
                        _values(draw, len(comparison_keys), allow_negative)
                    ),
                )
            )
    return raws


def assert_identical(per_view, batch):
    assert set(per_view) == set(batch)
    for spec, scalar in per_view.items():
        columnar = batch[spec]
        assert scalar.utility == columnar.utility, spec
        assert list(scalar.groups) == list(columnar.groups), spec
        assert np.array_equal(
            scalar.target_distribution, columnar.target_distribution
        ), spec
        assert np.array_equal(
            scalar.comparison_distribution, columnar.comparison_distribution
        ), spec
        assert np.array_equal(
            scalar.target_values, columnar.target_values, equal_nan=True
        ), spec
        assert np.array_equal(
            scalar.comparison_values, columnar.comparison_values, equal_nan=True
        ), spec


@pytest.mark.parametrize("metric_name", ALL_METRICS)
@pytest.mark.parametrize(
    "policy", [NormalizationPolicy.SHIFT, NormalizationPolicy.ABSOLUTE]
)
@settings(max_examples=25, deadline=None)
@given(raws=view_workload(allow_negative=True))
def test_batch_bitwise_equals_per_view(metric_name, policy, raws):
    processor = ViewProcessor(get_metric(metric_name), policy)
    assert_identical(processor.score_all(raws), processor.score_batch(raws))


@pytest.mark.parametrize("metric_name", ALL_METRICS)
@settings(max_examples=15, deadline=None)
@given(raws=view_workload(allow_negative=False))
def test_batch_bitwise_equals_per_view_strict(metric_name, raws):
    processor = ViewProcessor(get_metric(metric_name), NormalizationPolicy.STRICT)
    assert_identical(processor.score_all(raws), processor.score_batch(raws))


def test_empty_views_score_zero_on_both_paths():
    raw = RawViewData(
        spec=ViewSpec("d", "m", "sum"),
        target_keys=[],
        target_values=np.empty(0),
        comparison_keys=[],
        comparison_values=np.empty(0),
    )
    processor = ViewProcessor(get_metric("js"), NormalizationPolicy.SHIFT)
    assert_identical(processor.score_all([raw]), processor.score_batch([raw]))
    assert processor.score_batch([raw])[raw.spec].utility == 0.0


def test_custom_scalar_metric_falls_back_to_loop():
    """A metric implementing only the scalar _distance still batch-scores."""
    from repro.metrics.base import DistanceMetric

    class FirstBinGap(DistanceMetric):
        name = "first_bin_gap"

        def _distance(self, p, q):
            return abs(float(p[0]) - float(q[0]))

    processor = ViewProcessor(FirstBinGap(), NormalizationPolicy.SHIFT)
    raws = [
        RawViewData(
            spec=ViewSpec("d", f"m{i}", "sum"),
            target_keys=["a", "b"],
            target_values=np.array([1.0, 3.0 + i]),
            comparison_keys=["a", "b", "c"],
            comparison_values=np.array([2.0, 2.0, 2.0]),
        )
        for i in range(3)
    ]
    assert_identical(processor.score_all(raws), processor.score_batch(raws))


@pytest.fixture(params=["memory", "sqlite"])
def backend_factory(request, medium_table):
    def make():
        backend = (
            MemoryBackend() if request.param == "memory" else SqliteBackend()
        )
        backend.register_table(medium_table)
        return backend

    made = []

    def tracked():
        backend = make()
        made.append(backend)
        return backend

    yield tracked
    for backend in made:
        if isinstance(backend, SqliteBackend):
            backend.close()


@pytest.mark.parametrize("metric_name", ALL_METRICS)
def test_engine_batch_equals_per_view_on_backends(backend_factory, metric_name):
    """End-to-end: batch vs per-view scoring through the full engine on both
    backends — identical utilities, rankings, and query counts."""
    query = RowSelectQuery("orders", col("product") == "p0")
    results = {}
    queries = {}
    for batch in (False, True):
        backend = backend_factory()
        config = SeeDBConfig(metric=metric_name, batch_scoring=batch)
        results[batch] = SeeDB(backend, config).recommend(
            RecommendationRequest(query, k=3)
        )
        queries[batch] = backend.queries_executed
    per_view, columnar = results[False], results[True]
    assert queries[True] == queries[False]
    assert per_view.n_queries == columnar.n_queries
    assert [v.spec for v in per_view.recommendations] == [
        v.spec for v in columnar.recommendations
    ]
    for spec, utility in per_view.utilities.items():
        assert columnar.utilities[spec] == utility  # bit-for-bit
