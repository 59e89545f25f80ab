"""Statistical significance of a view's deviation.

The frontend shows per-view metadata "and other statistics" (§3.2); the
most useful statistic for an analyst deciding whether a deviation "is
truly an insight" (§1) is whether it could be sampling noise. For count
views (and any view whose values are non-negative totals), a chi-square
goodness-of-fit test against the comparison distribution answers exactly
that: *if the target rows were drawn from the comparison distribution, how
surprising are these group counts?* The p-value is :func:`chi2_sf`,
computed here from ``math.lgamma`` (no scipy).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro.model.view import ScoredView
from repro.util.errors import MetricError


@dataclass(frozen=True)
class SignificanceResult:
    """Chi-square test outcome for one view."""

    chi2: float
    p_value: float
    dof: int
    #: Number of expected-count cells below 5 (test reliability caveat).
    sparse_cells: int

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the deviation is significant at level ``alpha``."""
        return self.p_value < alpha


def view_significance(
    view: ScoredView, n_target_rows: "int | None" = None
) -> SignificanceResult:
    """Chi-square test of the view's target against its comparison.

    The target's raw values are treated as observed totals; expected
    totals are the comparison distribution scaled to the same mass.
    ``n_target_rows`` overrides the total when the view's values are not
    counts (e.g. SUMs): the test is then performed on the distributions
    scaled to that row count — a standard approximation, flagged through
    ``sparse_cells`` when unreliable.
    """
    observed = np.asarray(view.target_values, dtype=np.float64)
    if observed.size == 0:
        raise MetricError("cannot test an empty view")
    observed = np.where(np.isnan(observed), 0.0, observed)
    if np.any(observed < 0):
        raise MetricError(
            "significance testing needs non-negative view values "
            "(counts or sums of non-negative measures)"
        )
    total = float(observed.sum()) if n_target_rows is None else float(n_target_rows)
    if total <= 0:
        raise MetricError("view has zero total mass; nothing to test")
    if n_target_rows is not None:
        distribution = (
            observed / observed.sum() if observed.sum() > 0 else observed
        )
        observed = distribution * total

    expected = np.asarray(view.comparison_distribution, dtype=np.float64) * total
    # Zero-expectation cells break the statistic; give them a minuscule
    # expectation (their observed counts then dominate chi2, as they should).
    expected = np.maximum(expected, 1e-9)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    dof = max(observed.size - 1, 1)
    p_value = chi2_sf(chi2, dof)
    sparse_cells = int(np.sum(expected < 5.0))
    return SignificanceResult(
        chi2=chi2, p_value=p_value, dof=dof, sparse_cells=sparse_cells
    )


#: Relative tolerance at which the series and continued fraction stop.
_EPSILON = sys.float_info.epsilon
#: Floor keeping the continued fraction's denominators off zero.
_TINY = 1e-300
#: Bound on the continued fraction's terms (it converges in far fewer).
_MAX_TERMS = 10_000


def chi2_sf(x: float, dof: int) -> float:
    """The chi-square survival function P(X > x) for X ~ chi2(``dof``).

    It is the regularised upper incomplete gamma Q(dof/2, x/2): below
    a + 1 one minus the power series of P(a, z), else Lentz's continued
    fraction for Q (Numerical Recipes, §6.2), both scaled by
    ``exp(a log z - z - lgamma(a))``.
    """
    if x <= 0.0:
        return 1.0
    a, z = dof / 2.0, x / 2.0
    scale = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * _EPSILON:
            n += 1.0
            term *= z / n
            total += term
        return max(0.0, 1.0 - total * scale)
    b = z + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) <= _EPSILON:
            break
    return fraction * scale
