"""Accuracy of sample-based recommendations vs. ground truth.

The demo's Scenario 2 lets attendees "observe the effect on response times
and accuracy" of the sampling optimization. These are the accuracy
measures: per-view utility error, precision of the top-k set, and rank
correlation (Kendall's tau) over the whole view space.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.model.view import ViewSpec
from repro.util.errors import SamplingError


def ranking_from_utilities(utilities: Mapping[ViewSpec, float]) -> list[ViewSpec]:
    """Views sorted by descending utility (ties broken by the spec's
    natural order so rankings are deterministic)."""
    return [
        spec
        for spec, _utility in sorted(
            utilities.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def topk_precision(
    true_utilities: Mapping[ViewSpec, float],
    estimated_utilities: Mapping[ViewSpec, float],
    k: int,
) -> float:
    """|top-k(true) ∩ top-k(estimated)| / k.

    The metric SeeDB cares most about: does the sampled run surface the
    same recommended views as the exact run?
    """
    if k <= 0:
        raise SamplingError(f"k must be positive, got {k}")
    true_top = set(ranking_from_utilities(true_utilities)[:k])
    estimated_top = set(ranking_from_utilities(estimated_utilities)[:k])
    if not true_top:
        return 1.0
    return len(true_top & estimated_top) / min(k, len(true_top))


def kendall_tau(
    true_utilities: Mapping[ViewSpec, float],
    estimated_utilities: Mapping[ViewSpec, float],
) -> float:
    """Kendall's tau-b between the two utility orderings over common views."""
    common = sorted(set(true_utilities) & set(estimated_utilities))
    if len(common) < 2:
        return 1.0
    true_values = np.array([true_utilities[spec] for spec in common], dtype=np.float64)
    estimated_values = np.array(
        [estimated_utilities[spec] for spec in common], dtype=np.float64
    )
    # tau-b = (concordant - discordant) / sqrt(pairs untied in each), one
    # row of pairs at a time so memory stays linear in the view count.
    score, untied_true, untied_estimated = 0.0, 0, 0
    for i in range(len(common) - 1):
        true_signs = np.sign(true_values[i + 1 :] - true_values[i])
        estimated_signs = np.sign(estimated_values[i + 1 :] - estimated_values[i])
        score += float(true_signs @ estimated_signs)
        untied_true += np.count_nonzero(true_signs)
        untied_estimated += np.count_nonzero(estimated_signs)
    if not untied_true or not untied_estimated or np.isnan(score):
        return 1.0  # constant rankings
    tau = score / np.sqrt(untied_true) / np.sqrt(untied_estimated)
    return float(min(1.0, max(-1.0, tau)))


def utility_errors(
    true_utilities: Mapping[ViewSpec, float],
    estimated_utilities: Mapping[ViewSpec, float],
) -> dict[str, float]:
    """Mean / max absolute utility error over common views."""
    common = sorted(set(true_utilities) & set(estimated_utilities))
    if not common:
        return {"mean_abs_error": 0.0, "max_abs_error": 0.0}
    errors = np.array(
        [abs(true_utilities[spec] - estimated_utilities[spec]) for spec in common]
    )
    return {
        "mean_abs_error": float(errors.mean()),
        "max_abs_error": float(errors.max()),
    }

