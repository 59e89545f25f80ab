"""Property tests: the columnar Score path equals the per-view path.

The batch data plane (``GroupState.block`` →
``normalize_batch`` → ``distance_batch`` via
``ViewProcessor.score_blocks``) must produce bit-for-bit the same
utilities, distributions, and group universes as the classic per-view
loop (``ViewProcessor.score_all`` over :class:`RawViewData`) — across
every metric, every normalization policy, and the messy edges of real view
results: missing groups on either side, NaN aggregates, negative
measures, and entirely empty views. The same equivalence is asserted on
the blocks the engine executes on both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.topk import top_k_views
from repro.core.view_processor import ViewProcessor
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.engine.engine import ExecutionEngine
from repro.metrics.normalize import NormalizationPolicy, group_sort_key
from repro.metrics.registry import available_metrics, get_metric
from repro.model.view import RawViewData, ViewSpec
from repro.optimizer.combine import GroupState
from repro.optimizer.plan import ViewGroup

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


def _partial(draw, n_views: int, allow_negative: bool) -> tuple:
    """One side of a view group: sorted keys, one value row per view."""
    keys = sorted(
        draw(st.lists(st.sampled_from(KEY_POOL), unique=True, max_size=6)),
        key=group_sort_key,
    )
    values = [_values(draw, len(keys), allow_negative) for _ in range(n_views)]
    return keys, np.asarray(values, dtype=np.float64).reshape(n_views, len(keys))


@st.composite
def view_workload(draw, allow_negative: bool = True) -> list[tuple]:
    """View groups over 1-2 dimensions, each ``(dimension, views, target,
    comparison)`` with independent target/comparison key sets (so group
    alignment actually has work to do)."""
    groups = []
    for d in range(draw(st.integers(1, 2))):
        views = tuple(
            ViewSpec(f"d{d}", f"m{m}", "sum") for m in range(draw(st.integers(1, 3)))
        )
        target = _partial(draw, len(views), allow_negative)
        comparison = _partial(draw, len(views), allow_negative)
        groups.append((f"d{d}", views, target, comparison))
    return groups


def group_block(dimension, views, target, comparison):
    """The production block of a group whose two sides were fetched as
    ``(keys, values)``: each folded into its side of the group's state."""
    state = GroupState(ViewGroup(dimension, views), merged=False)
    for side, (keys, values) in enumerate((target, comparison)):
        state.fold(side, state.index([np.array(keys, dtype=object)]), values)
    return state.block(merge=False)


def blocks_and_raws(groups):
    """Each group's production block, and the same series as per-view
    :class:`RawViewData` for the scalar oracle."""
    blocks, raws = [], []
    for dimension, views, target, comparison in groups:
        blocks.append(group_block(dimension, views, target, comparison))
        raws.extend(
            RawViewData(
                spec=view,
                target_keys=target[0],
                target_values=target[1][row],
                comparison_keys=comparison[0],
                comparison_values=comparison[1][row],
            )
            for row, view in enumerate(views)
        )
    return blocks, raws


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


def assert_block_path_matches_oracle(processor, groups):
    blocks, raws = blocks_and_raws(groups)
    assert_identical(processor.score_all(raws), processor.score_blocks(blocks))


@pytest.mark.parametrize("metric_name", ALL_METRICS)
@pytest.mark.parametrize(
    "policy", [NormalizationPolicy.SHIFT, NormalizationPolicy.ABSOLUTE]
)
@settings(max_examples=25, deadline=None)
@given(groups=view_workload(allow_negative=True))
def test_batch_bitwise_equals_per_view(metric_name, policy, groups):
    processor = ViewProcessor(get_metric(metric_name), policy)
    assert_block_path_matches_oracle(processor, groups)


@pytest.mark.parametrize("metric_name", ALL_METRICS)
@settings(max_examples=15, deadline=None)
@given(groups=view_workload(allow_negative=False))
def test_batch_bitwise_equals_per_view_strict(metric_name, groups):
    processor = ViewProcessor(get_metric(metric_name), NormalizationPolicy.STRICT)
    assert_block_path_matches_oracle(processor, groups)


def test_empty_views_score_zero_on_both_paths():
    spec = ViewSpec("d", "m", "sum")
    empty = ([], np.empty((1, 0)))
    processor = ViewProcessor(get_metric("js"), NormalizationPolicy.SHIFT)
    assert_block_path_matches_oracle(processor, [("d", (spec,), empty, empty)])
    blocks, _ = blocks_and_raws([("d", (spec,), empty, empty)])
    assert processor.score_blocks(blocks)[spec].utility == 0.0


def test_custom_scalar_metric_falls_back_to_loop():
    """A metric implementing only the scalar _distance still batch-scores."""
    from repro.metrics.base import DistanceMetric

    class FirstBinGap(DistanceMetric):
        name = "first_bin_gap"

        def _distance(self, p, q):
            return abs(float(p[0]) - float(q[0]))

    processor = ViewProcessor(FirstBinGap(), NormalizationPolicy.SHIFT)
    views = tuple(ViewSpec("d", f"m{i}", "sum") for i in range(3))
    target = (["a", "b"], np.array([[1.0, 3.0 + i] for i in range(3)]))
    comparison = (["a", "b", "c"], np.full((3, 3), 2.0))
    assert_block_path_matches_oracle(processor, [("d", views, target, comparison)])


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
    """The blocks the engine executes on both backends score identically
    through the columnar path and the per-view loop."""
    config = SeeDBConfig(metric=metric_name)
    request = RecommendationRequest(RowSelectQuery("orders", col("product") == "p0"), k=3)
    with ExecutionEngine(backend_factory()) as engine:
        ctx = engine.recommend(request.resolve(config))
    assert ctx.blocks
    processor = ViewProcessor(config.resolve_metric(), config.normalization)
    assert_identical(
        processor.score_rows(ctx.blocks), processor.score_blocks(ctx.blocks)
    )


def test_engine_ranking_equals_per_view_ranking(backend_factory):
    """What the Score and Select phases keep — every utility and the
    top-k — is what the per-view loop over the same blocks yields."""
    config = SeeDBConfig()
    request = RecommendationRequest(RowSelectQuery("orders", col("product") == "p0"), k=3)
    with ExecutionEngine(backend_factory()) as engine:
        ctx = engine.recommend(request.resolve(config))
    processor = ViewProcessor(config.resolve_metric(), config.normalization)
    per_view = processor.score_rows(ctx.blocks)
    assert {spec: view.utility for spec, view in ctx.scored.items()} == {
        spec: view.utility for spec, view in per_view.items()
    }
    assert [view.spec for view in ctx.recommendations] == [
        view.spec for view in top_k_views(per_view.values(), ctx.k)
    ]
