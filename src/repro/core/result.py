"""Recommendation results: what SeeDB hands back to the frontend.

Besides the top-k views themselves, the result carries everything the demo
frontend displays — per-view metadata, the "bad views" (pruned or
low-utility, shown on request in Scenario 1), per-phase timings, and the
work counters the performance scenario plots. It keeps the utility of
every executed view but the distributions of only the views it shows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.view import ScoredView, ViewSpec
from repro.pruning.base import PruneReport
from repro.util.tabulate import format_table
from repro.util.timing import Stopwatch, format_duration

#: Lowest-utility views a result keeps whole for the "bad views" panel.
WORST_VIEWS_KEPT = 3


@dataclass
class RecommendationResult:
    """Outcome of one ``SeeDB.recommend`` call."""

    table: str
    predicate_description: str
    k: int
    metric: str
    #: The k highest-utility views, descending.
    recommendations: list[ScoredView]
    #: Every executed view's utility (recommendations included).
    utilities: dict[ViewSpec, float]
    #: The scored views the result shows, distributions included: the
    #: recommendations plus the :data:`WORST_VIEWS_KEPT` lowest-utility
    #: views, in scoring order.
    all_scored: dict[ViewSpec, ScoredView]
    #: Views removed before execution, per pruning rule.
    prune_reports: list[PruneReport]
    #: Per-phase wall-clock breakdown.
    stopwatch: Stopwatch
    #: Candidate views before pruning.
    n_candidate_views: int
    #: Views actually executed.
    n_executed_views: int
    #: DBMS round trips issued for view queries.
    n_queries: int
    #: Sample fraction used (None = exact execution).
    sample_fraction: "float | None" = None
    #: Human-readable plan summary.
    plan_description: str = ""
    #: Cost-based planner decision record: chosen combining mode,
    #: predicted work units and seconds, per-candidate predictions, the
    #: coefficients used, and the observed execute-phase seconds. None
    #: when the static planner ran (``cost_based_planning=False``).
    plan_decision: "dict | None" = None
    #: The comparison row set the utilities were scored against
    #: ("table" = the paper's whole-table reference).
    reference_description: str = "table"
    #: True when a deadline expired mid-run and the result is the best
    #: current estimate rather than the full computation.
    partial: bool = False
    #: Hoeffding ε of the last completed incremental round when
    #: ``partial`` — the confidence half-width on every utility.
    partial_epsilon: "float | None" = None
    #: JSON-safe visualization frames (one per recommended view, built by
    #: the RenderPhase) when the request's ``options.render`` asked for
    #: them; None otherwise. Carried inside the result so every transport
    #: — result LRU, coalesced joiners, the cluster reply pipe — ships the
    #: charts with the data.
    visualizations: "list[dict] | None" = None

    @classmethod
    def from_scored(
        cls,
        scored: dict[ViewSpec, ScoredView],
        recommendations: list[ScoredView],
        **fields,
    ) -> "RecommendationResult":
        """The result of one run from every view it scored: utilities for
        all of them, whole views for the recommendations and the
        :data:`WORST_VIEWS_KEPT` lowest-utility ones.

        A scored view's arrays are rows of its scoring block's matrices;
        the kept views get their own copies so the blocks can be freed.
        """
        worst = sorted(scored.values(), key=lambda view: view.utility)
        kept = {
            id(view): _detached(view)
            for view in [*recommendations, *worst[:WORST_VIEWS_KEPT]]
        }
        return cls(
            recommendations=[kept[id(view)] for view in recommendations],
            utilities={spec: view.utility for spec, view in scored.items()},
            all_scored={
                spec: kept[id(view)]
                for spec, view in scored.items()
                if id(view) in kept
            },
            **fields,
        )

    @property
    def total_seconds(self) -> float:
        return self.stopwatch.total

    def pruned_views(self) -> list[tuple[ViewSpec, str]]:
        """All (view, reason) pairs removed by pruning."""
        return [entry for report in self.prune_reports for entry in report.pruned]

    def worst_views(self, n: int = WORST_VIEWS_KEPT) -> list[ScoredView]:
        """The lowest-utility executed views — the demo's "bad views".

        Exact for ``n <= WORST_VIEWS_KEPT``, the most a result keeps.
        """
        ranked = sorted(self.all_scored.values(), key=lambda view: view.utility)
        return ranked[:n]

    def summary(self) -> str:
        """Multi-line report: recommendations table + work accounting."""
        rows = [
            [rank + 1, view.spec.label, view.utility]
            for rank, view in enumerate(self.recommendations)
        ]
        lines = [
            f"SeeDB recommendations for {self.table} "
            f"[{self.predicate_description}] (metric={self.metric}):",
            format_table(rows, headers=["rank", "view", "utility"]),
            "",
            (
                f"views: {self.n_candidate_views} candidates, "
                f"{self.n_executed_views} executed, "
                f"{len(self.pruned_views())} pruned; "
                f"queries: {self.n_queries}; "
                f"time: {format_duration(self.total_seconds)}"
            ),
        ]
        if self.sample_fraction is not None:
            lines.append(f"sampling: fraction={self.sample_fraction}")
        if self.partial:
            epsilon = (
                f"±{self.partial_epsilon:.4f}"
                if self.partial_epsilon is not None
                else "unknown"
            )
            lines.append(
                f"PARTIAL: deadline hit before completion; "
                f"utilities are estimates ({epsilon})"
            )
        return "\n".join(lines)


def _detached(view: ScoredView) -> ScoredView:
    """``view`` over copies of its arrays, which pin nothing else."""
    return replace(
        view,
        target_distribution=view.target_distribution.copy(),
        comparison_distribution=view.comparison_distribution.copy(),
        target_values=view.target_values.copy(),
        comparison_values=view.comparison_values.copy(),
    )
