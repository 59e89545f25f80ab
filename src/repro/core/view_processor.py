"""The View Processor module (Figure 4).

"Results of the optimized queries are processed by the View Processor in a
streaming fashion to produce results for individual views. Individual view
results are then normalized and the utility of each view is computed"
(§3.1). Plan execution hands over one dense
:class:`~repro.model.view.ViewBlock` per view group; aligned
distributions and utilities come out.

Two scoring paths share one semantics:

* :meth:`ViewProcessor.score_blocks` — the columnar path: a block's rows
  are normalized in one pass and scored with one vectorized
  ``distance_batch`` call.
* :meth:`ViewProcessor.score` / :meth:`ViewProcessor.score_all` — the
  classic per-view loop (align one series pair, normalize, one scalar
  metric call); :meth:`ViewProcessor.score_rows` runs it over block rows.
  Utilities and distributions are bit-for-bit identical to the columnar
  path (the property suite asserts this); only the constant factor
  changes.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.model.view import RawViewData, ScoredView, ViewSpec
from repro.metrics.base import DistanceMetric
from repro.metrics.normalize import (
    NormalizationPolicy,
    align_series,
    normalize_batch,
    normalize_distribution,
)
from repro.model.view import ViewBlock


class ViewProcessor:
    """Normalizes raw view series and scores their deviation."""

    def __init__(
        self,
        metric: DistanceMetric,
        normalization: NormalizationPolicy = NormalizationPolicy.SHIFT,
    ):
        self.metric = metric
        self.normalization = normalization

    def score(self, raw: RawViewData) -> ScoredView:
        """Align, normalize, and score one view (utility = S(P_target, P_comparison))."""
        return self._score_series(
            raw.spec, raw.target_keys, raw.target_values,
            raw.comparison_keys, raw.comparison_values,
        )

    def _score_series(
        self, spec, target_keys, target_values, comparison_keys, comparison_values
    ) -> ScoredView:
        groups, target_values, comparison_values = align_series(
            target_keys, target_values, comparison_keys, comparison_values
        )
        if not groups:
            # Neither side produced any group (empty selection on an empty
            # table): define utility as 0 — nothing deviates.
            return ScoredView(
                spec=spec,
                utility=0.0,
                groups=[],
                target_distribution=np.empty(0),
                comparison_distribution=np.empty(0),
            )
        target_distribution = normalize_distribution(target_values, self.normalization)
        comparison_distribution = normalize_distribution(
            comparison_values, self.normalization
        )
        utility = self.metric.distance(target_distribution, comparison_distribution)
        return ScoredView(
            spec=spec,
            utility=utility,
            groups=groups,
            target_distribution=target_distribution,
            comparison_distribution=comparison_distribution,
            target_values=target_values,
            comparison_values=comparison_values,
        )

    def score_all(
        self, raw_views: "Mapping[ViewSpec, RawViewData] | Iterable[RawViewData]"
    ) -> dict[ViewSpec, ScoredView]:
        """Score every raw view with the per-view loop; returns ``{spec: scored}``."""
        if isinstance(raw_views, Mapping):
            raw_views = raw_views.values()
        return {raw.spec: self.score(raw) for raw in raw_views}

    def score_rows(self, blocks: Iterable[ViewBlock]) -> dict[ViewSpec, ScoredView]:
        """:meth:`score_all` over block rows: each view is scored alone, on
        its block's groups, exactly as :meth:`score` scores its series."""
        return {
            spec: self._score_series(
                spec, block.groups, block.target[row], block.groups, block.comparison[row]
            )
            for block in blocks
            for row, spec in enumerate(block.specs)
        }

    def score_blocks(
        self, blocks: Iterable[ViewBlock]
    ) -> dict[ViewSpec, ScoredView]:
        """Score dense view blocks; returns ``{spec: scored}``."""
        scored: dict[ViewSpec, ScoredView] = {}
        for block in blocks:
            if block.n_groups == 0:
                for spec in block.specs:
                    scored[spec] = ScoredView(
                        spec=spec,
                        utility=0.0,
                        groups=[],
                        target_distribution=np.empty(0),
                        comparison_distribution=np.empty(0),
                    )
                continue
            target_distributions = normalize_batch(block.target, self.normalization)
            comparison_distributions = normalize_batch(
                block.comparison, self.normalization
            )
            utilities = self.metric.distance_batch(
                target_distributions, comparison_distributions
            )
            for row, spec in enumerate(block.specs):
                scored[spec] = ScoredView(
                    spec=spec,
                    utility=float(utilities[row]),
                    groups=block.groups,
                    target_distribution=target_distributions[row],
                    comparison_distribution=comparison_distributions[row],
                    target_values=block.target[row],
                    comparison_values=block.comparison[row],
                )
        return scored
