"""The state that flows through the execution pipeline.

One :class:`ExecutionContext` is created per recommendation request and
threaded through an ordered list of :class:`~repro.engine.phases.Phase`
objects. Each phase reads the fields earlier phases produced and writes
its own — the dataclass makes the hand-offs of Figure 4 explicit and
independently testable (a phase can be exercised on a context from
:meth:`~repro.engine.ExecutionEngine.new_context`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.backends.base import Backend
from repro.core.config import SeeDBConfig
from repro.db.query import RowSelectQuery
from repro.model.reference import TABLE_REFERENCE, ResolvedReference
from repro.util.timing import Stopwatch

if TYPE_CHECKING:
    from repro.core.result import RecommendationResult
    from repro.db.schema import Schema
    from repro.db.table import Table
    from repro.engine.cache import SessionCache
    from repro.metadata.collector import MetadataCollector, TableMetadata
    from repro.model.view import ScoredView, ViewBlock
    from repro.optimizer.cost import PlanDecision
    from repro.optimizer.plan import ExecutionPlan
    from repro.pruning.base import PruneReport
    from repro.util.deadline import CancelToken, Deadline


@dataclass
class ExecutionContext:
    """Everything one recommendation run reads and produces.

    The first block is the request; the second is session-scoped machinery
    the engine injects; the rest is filled in by phases as the pipeline
    advances (field comments name the phase that owns each).
    """

    # -- request ---------------------------------------------------------
    backend: Backend
    query: RowSelectQuery
    config: SeeDBConfig
    k: int
    #: The engine's session cache: every schema/metadata/sample/statistics
    #: lookup a phase makes goes through it (and is dropped by its owner).
    cache: "SessionCache"
    #: Comparison row set (paper default: the whole table). Execute-side
    #: phases and the planner read this to build the comparison queries.
    reference: ResolvedReference = TABLE_REFERENCE
    #: Optional view-space filters: restrict enumeration to these
    #: dimension / measure attributes (None = no restriction).
    dimensions: "tuple[str, ...] | None" = None
    measures: "tuple[str, ...] | None" = None

    # -- injected by the engine ------------------------------------------
    metadata_collector: "MetadataCollector | None" = None
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    #: Request-lifecycle budget: the engine checks the token at phase
    #: boundaries, the phased executor between rounds, and backends per
    #: query (via the thread-local cancel scope).
    cancel_token: "CancelToken | None" = None

    # -- MetadataPhase ----------------------------------------------------
    base_table: "Table | None" = None
    metadata: "TableMetadata | None" = None

    # -- EnumeratePhase ---------------------------------------------------
    schema: "Schema | None" = None
    candidates: list = field(default_factory=list)

    # -- PrunePhase -------------------------------------------------------
    surviving: list = field(default_factory=list)
    prune_reports: "list[PruneReport]" = field(default_factory=list)

    # -- SamplePhase ------------------------------------------------------
    execution_table: "str | None" = None
    sample_fraction: "float | None" = None

    # -- PlanPhase --------------------------------------------------------
    plan: "ExecutionPlan | None" = None
    plan_description: str = ""
    #: The planner's priced choice record (None until the Plan phase
    #: runs); the engine fills in ``observed_seconds`` after a blocking run.
    plan_decision: "PlanDecision | None" = None

    # -- ExecutePhase -----------------------------------------------------
    blocks: "list[ViewBlock]" = field(default_factory=list)

    # -- ScorePhase -------------------------------------------------------
    scored: "dict[Any, ScoredView]" = field(default_factory=dict)

    # -- SelectPhase ------------------------------------------------------
    recommendations: "list[ScoredView]" = field(default_factory=list)

    # -- RenderPhase ------------------------------------------------------
    #: JSON-safe chart frames for the recommendations (None when the
    #: request did not ask for rendering).
    visualizations: "list[dict] | None" = None

    # -- accounting / extension point --------------------------------------
    #: Backend query counter at the start of view-query execution; metadata
    #: round trips are deliberately excluded from ``n_queries``.
    queries_before: "int | None" = None
    #: Phase-specific side outputs (incremental pruning traces, ...) keyed
    #: by a phase-chosen name.
    extras: dict[str, Any] = field(default_factory=dict)
    #: Set by the phased executor when a deadline expired mid-run and it
    #: degraded to the best current answer instead of erroring.
    partial: bool = False
    #: Hoeffding ε of the last completed round when ``partial`` (how far
    #: any view's utility estimate can still move).
    partial_epsilon: "float | None" = None

    @property
    def deadline(self) -> "Deadline | None":
        return self.cancel_token.deadline if self.cancel_token is not None else None

    def check_cancelled(self) -> None:
        """Raise the token's typed error if the budget is gone.

        Once the run has degraded to a partial answer only an *explicit*
        cancel aborts it — the remaining phases just package what exists.
        """
        if self.cancel_token is None:
            return
        if self.partial:
            self.cancel_token.check_cancel()
        else:
            self.cancel_token.check()

    def mark_query_baseline(self) -> None:
        """Record the view-query counting baseline (first caller wins)."""
        if self.queries_before is None:
            self.queries_before = self.backend.queries_executed

    @property
    def n_queries(self) -> int:
        """View-query round trips issued since the baseline."""
        if self.queries_before is None:
            return 0
        return self.backend.queries_executed - self.queries_before

    def resolve_execution_table(self) -> str:
        """Where view queries run: the sample if one was materialized."""
        return (
            self.execution_table
            if self.execution_table is not None
            else self.query.table
        )

    def to_result(self) -> "RecommendationResult":
        """Package the finished context as a :class:`RecommendationResult`."""
        from repro.core.result import RecommendationResult

        return RecommendationResult.from_scored(
            self.scored,
            self.recommendations,
            table=self.query.table,
            predicate_description=describe_predicate(self.query),
            k=self.k,
            metric=self.config.metric,
            prune_reports=self.prune_reports,
            stopwatch=self.stopwatch,
            n_candidate_views=len(self.candidates),
            n_executed_views=len(self.surviving),
            n_queries=self.n_queries,
            sample_fraction=self.sample_fraction,
            plan_description=self.plan_description,
            plan_decision=(
                self.plan_decision.to_dict()
                if self.plan_decision is not None
                else None
            ),
            reference_description=self.reference.describe(),
            partial=self.partial,
            partial_epsilon=self.partial_epsilon,
            visualizations=self.visualizations,
        )


def describe_predicate(query: RowSelectQuery) -> str:
    """Human-readable rendering of the analyst's predicate.

    Falls back to ``repr`` for Expression subclasses the SQL renderer does
    not know — custom predicates execute fine on the in-memory path and
    must not crash result packaging.
    """
    if query.predicate is None:
        return "all rows"
    from repro.backends.sqlgen import render_expression
    from repro.util.errors import QueryError

    try:
        return render_expression(query.predicate)
    except QueryError:
        return repr(query.predicate)
