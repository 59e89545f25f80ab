"""Jensen-Shannon distance — named in paper §2 ("Jenson-Shannon").

The square root of the JS divergence with base-2 logarithms: a true metric,
symmetric, bounded in [0, 1], and finite without smoothing — which is why
it is SeeDB's default in this reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import DistanceMetric


def _kl_bits_rows(P: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Row-wise KL(P‖M) in bits over the support of P (0·log0 := 0), for
    the mixture ``M = total / 2`` of ``P`` and another distribution.

    The ratio P/M is computed as ``2P / total``: ``total`` is at least
    ``P``, so it is positive wherever ``P`` is, even where ``total / 2``
    underflows to 0 (a subnormal ``P`` entry against a zero). For normal
    inputs both forms round the same real quotient. Wherever ``P`` is zero
    the ratio is forced to 1 so the term contributes an exact 0.
    """
    ratio = np.divide(2.0 * P, total, out=np.ones_like(P), where=P > 0)
    return np.sum(P * np.log2(ratio), axis=1)


class JensenShannonDistance(DistanceMetric):
    """``sqrt(JSD(p, q))`` with JSD in bits; range [0, 1]."""

    name = "js"

    def _distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        total = P + Q
        divergence = 0.5 * _kl_bits_rows(P, total) + 0.5 * _kl_bits_rows(Q, total)
        # Floating-point noise can push the divergence a hair negative.
        return np.sqrt(np.maximum(divergence, 0.0))
