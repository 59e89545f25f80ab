"""Property tests: metric axioms on random probability distributions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.metrics.normalize import normalize_distribution
from repro.metrics.registry import available_metrics, get_metric

SYMMETRIC_METRICS = ("euclidean", "js", "total_variation", "chisquare", "maxdev", "emd")
BOUNDED_BY_ONE = ("js", "total_variation", "chisquare", "maxdev")


@st.composite
def distribution_pairs(draw, min_size=2, max_size=12):
    size = draw(st.integers(min_size, max_size))
    positive = st.floats(0.0, 100.0, allow_nan=False)
    raw_p = draw(
        st.lists(positive, min_size=size, max_size=size).filter(
            lambda values: sum(values) > 0
        )
    )
    raw_q = draw(
        st.lists(positive, min_size=size, max_size=size).filter(
            lambda values: sum(values) > 0
        )
    )
    return (
        normalize_distribution(np.array(raw_p)),
        normalize_distribution(np.array(raw_q)),
    )


@settings(max_examples=60, deadline=None)
@given(pair=distribution_pairs())
def test_non_negative_and_finite(pair):
    p, q = pair
    for name in available_metrics():
        value = get_metric(name).distance(p, q)
        assert value >= 0.0, name
        assert np.isfinite(value), name


@settings(max_examples=60, deadline=None)
@given(pair=distribution_pairs())
def test_identity_of_indiscernibles(pair):
    p, _q = pair
    for name in available_metrics():
        assert get_metric(name).distance(p, p.copy()) == pytest.approx(
            0.0, abs=1e-9
        ), name


@settings(max_examples=60, deadline=None)
@given(pair=distribution_pairs())
def test_symmetry(pair):
    p, q = pair
    for name in SYMMETRIC_METRICS:
        metric = get_metric(name)
        assert metric.distance(p, q) == pytest.approx(
            metric.distance(q, p), rel=1e-9, abs=1e-12
        ), name


@settings(max_examples=60, deadline=None)
@given(pair=distribution_pairs())
def test_bounded_metrics_stay_in_unit_interval(pair):
    p, q = pair
    for name in BOUNDED_BY_ONE:
        assert get_metric(name).distance(p, q) <= 1.0 + 1e-9, name


@st.composite
def distribution_triples(draw):
    size = draw(st.integers(2, 8))
    positive = st.floats(0.0, 100.0, allow_nan=False)

    def one():
        raw = draw(
            st.lists(positive, min_size=size, max_size=size).filter(
                lambda values: sum(values) > 0
            )
        )
        return normalize_distribution(np.array(raw))

    return one(), one(), one()


@settings(max_examples=60, deadline=None)
@given(triple=distribution_triples())
def test_triangle_inequality_for_true_metrics(triple):
    p, q, r = triple
    for name in ("euclidean", "js", "total_variation", "maxdev"):
        metric = get_metric(name)
        assert metric.distance(p, r) <= (
            metric.distance(p, q) + metric.distance(q, r) + 1e-9
        ), name


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(
        st.floats(-50.0, 100.0, allow_nan=False), min_size=1, max_size=20
    )
)
def test_normalize_always_valid_under_shift(raw):
    from repro.metrics.normalize import NormalizationPolicy

    result = normalize_distribution(np.array(raw), NormalizationPolicy.SHIFT)
    assert result.sum() == pytest.approx(1.0)
    assert (result >= 0).all()


@settings(max_examples=60, deadline=None)
@given(pair=distribution_pairs(min_size=2, max_size=6))
def test_kl_smoothing_monotone_in_epsilon_limit(pair):
    """Smaller epsilon keeps KL closer to the unsmoothed value when the
    support matches (no zeros in q)."""
    from repro.metrics.kl import KLDivergence

    p, q = pair
    if (q <= 1e-12).any() or (p <= 1e-12).any():
        return  # unsmoothed KL undefined; skip
    exact = float(np.sum(p * np.log(p / q)))
    error_small = abs(KLDivergence(1e-12).distance(p, q) - exact)
    error_large = abs(KLDivergence(1e-2).distance(p, q) - exact)
    assert error_small <= error_large + 1e-9


def _js_with_halved_mixture(P, Q):
    """Jensen-Shannon through ``M = 0.5 * (P + Q)`` and ``P / M``: the
    formula the kernel used before it divided ``2P`` by ``P + Q``."""
    mixture = 0.5 * (P + Q)

    def kl_bits(X):
        ratio = np.divide(X, mixture, out=np.ones_like(X), where=X > 0)
        return np.sum(X * np.log2(ratio), axis=1)

    divergence = 0.5 * kl_bits(P) + 0.5 * kl_bits(Q)
    return np.sqrt(np.maximum(divergence, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_js_is_finite_on_a_subnormal_entry_against_zero():
    """Half a subnormal ``P + Q`` underflows to 0 while ``P > 0``; the
    ratio ``2P / (P + Q)`` has a positive denominator there."""
    p = np.array([5e-324, 1.0, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert 0.5 * (p[0] + q[0]) == 0.0
    value = get_metric("js").distance(p, q)
    assert np.isfinite(value)
    assert 0.0 <= value <= 1.0


@settings(max_examples=200, deadline=None)
@given(pair=distribution_pairs())
def test_js_keeps_the_bits_of_the_halved_mixture_on_normal_inputs(pair):
    p, q = pair
    tiny = np.finfo(np.float64).tiny
    assume(all(((x == 0) | (x >= tiny)).all() for x in pair))
    P, Q = p[None, :], q[None, :]
    assert get_metric("js").distance_batch(P, Q).tobytes() == (
        _js_with_halved_mixture(P, Q).tobytes()
    )
