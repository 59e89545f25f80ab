"""Recommendation results: what SeeDB hands back to the frontend.

Besides the top-k views themselves, the result carries everything the demo
frontend displays — per-view metadata, the "bad views" (pruned or
low-utility, shown on request in Scenario 1), per-phase timings, and the
work counters the performance scenario plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.view import ScoredView, ViewSpec
from repro.pruning.base import PruneReport
from repro.util.tabulate import format_table
from repro.util.timing import Stopwatch, format_duration


@dataclass
class RecommendationResult:
    """Outcome of one ``SeeDB.recommend`` call."""

    table: str
    predicate_description: str
    k: int
    metric: str
    #: The k highest-utility views, descending.
    recommendations: list[ScoredView]
    #: Every executed view's score (recommendations included).
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
    #: — result LRU, coalesced joiners, the shm cluster transport — ships
    #: the charts with the data.
    visualizations: "list[dict] | None" = None

    @property
    def utilities(self) -> dict[ViewSpec, float]:
        """{view: utility} over all executed views."""
        return {spec: view.utility for spec, view in self.all_scored.items()}

    @property
    def total_seconds(self) -> float:
        return self.stopwatch.total

    def pruned_views(self) -> list[tuple[ViewSpec, str]]:
        """All (view, reason) pairs removed by pruning."""
        return [entry for report in self.prune_reports for entry in report.pruned]

    def worst_views(self, n: int = 3) -> list[ScoredView]:
        """The lowest-utility executed views — the demo's "bad views"."""
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
