"""Plan cost model: deterministic work units + per-backend seconds.

Two layers, mirroring the ``StatInfo`` / ``blocks_accessed`` ×
``reduction_factor`` idiom of classic cost-based planners:

* :func:`estimate_plan_cost` prices a plan in machine-independent work
  units, per statement — rows scanned, rows × aggregates computed,
  result groups folded, logical queries, physical statements. The units
  mirror the engine's accounting: a query = one scan of its base table;
  a grouping-sets query = one scan and one logical query on backends with
  native support, one scan and one logical query *per set* otherwise
  (still a single UNION ALL statement); either way every set aggregates
  every row. A rollup's result groups count once per view group that
  folds them. A sampled run is priced at the sampled row count, not the
  base table's. :func:`estimate_bin_costs` gives the same prices from a
  candidate's bins, before any step is built.
* :class:`CostCoefficients` converts work units into predicted seconds.
  The coefficients are fixed per backend (:func:`coefficients_for`), so
  a plan's price is a pure function of the plan, the statistics and the
  backend name: the same request is priced the same in every process,
  on its first run and its hundredth. :func:`choose_plan` prices every
  candidate of ``AUTO`` at its wall-clock on the claimers its steps
  would ask for, and builds the cheapest.

The module also hosts the two data-dependent knob selectors the engine
consults: candidate sampling fractions (bounding the Hoeffding ε at the
sampled size) and the parallelism degree (worker overhead vs per-step
work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.backends.base import BackendCapabilities
from repro.db.expressions import Expression
from repro.db.query import GroupingSetsQuery
from repro.model.reference import ResolvedReference
from repro.model.view import ViewSpec
from repro.optimizer.plan import (
    PLAN_KINDS,
    ExecutionPlan,
    GroupByCombining,
    Planner,
    ViewGroup,
)

#: Candidate sampling fractions the planner may pick from, descending.
SAMPLE_FRACTION_CANDIDATES = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

#: Two-sided confidence for the Hoeffding bound (δ = 5%).
HOEFFDING_DELTA = 0.05


@dataclass(frozen=True)
class PlanCost:
    """Estimated work of one plan, in machine-independent units."""

    #: Logical queries, matching ``Backend.queries_executed`` accounting:
    #: a native shared scan counts once, a UNION ALL emulation counts one
    #: per grouping set.
    n_queries: int
    n_scans: int
    rows_scanned: int
    #: Result groups, each counted once per view group that folds it: a
    #: rollup's rows are read by every group of its bin. Bounded per
    #: grouping set by the product of key cardinalities and by the rows.
    result_groups: int
    #: Physical DBMS statements (round trips), matching
    #: ``Backend.statements_executed``: a UNION ALL batch is one.
    n_statements: int = 0
    #: Rows × aggregates computed, per grouping set: every engine folds
    #: each row into each aggregate once per set it groups by, whether
    #: the sets share a scan or not.
    aggregate_work: int = 0

    def __add__(self, other: "PlanCost") -> "PlanCost":
        return PlanCost(
            n_queries=self.n_queries + other.n_queries,
            n_scans=self.n_scans + other.n_scans,
            rows_scanned=self.rows_scanned + other.rows_scanned,
            result_groups=self.result_groups + other.result_groups,
            n_statements=self.n_statements + other.n_statements,
            aggregate_work=self.aggregate_work + other.aggregate_work,
        )

    def as_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_scans": self.n_scans,
            "rows_scanned": self.rows_scanned,
            "result_groups": self.result_groups,
            "n_statements": self.n_statements,
            "aggregate_work": self.aggregate_work,
        }


NO_COST = PlanCost(n_queries=0, n_scans=0, rows_scanned=0, result_groups=0)


@dataclass(frozen=True)
class CostCoefficients:
    """Seconds per cost-model work unit on one backend."""

    #: Seconds per base-table row scanned.
    row_scan_seconds: float
    #: Seconds per result group materialized and folded.
    group_seconds: float
    #: Fixed seconds per logical query (per grouping-set arm: rendering,
    #: result decode, per-arm evaluation in a UNION ALL emulation).
    query_seconds: float
    #: Fixed seconds per physical statement (round trip, parse, plan).
    statement_seconds: float
    #: Seconds per row folded into one aggregate (``aggregate_work``).
    aggregate_seconds: float
    #: Whether statements on different claimers run at once: a DBMS that
    #: releases the interpreter lock while it scans and aggregates does;
    #: the in-process numpy engine, which holds it, does not.
    statements_overlap: bool = True

    def predict_seconds(self, cost: PlanCost) -> float:
        """Predicted wall-clock of a :class:`PlanCost` run on one claimer."""
        return (
            self.row_scan_seconds * cost.rows_scanned
            + self.group_seconds * cost.result_groups
            + self.query_seconds * cost.n_queries
            + self.statement_seconds * cost.n_statements
            + self.aggregate_seconds * cost.aggregate_work
        )

    def to_dict(self) -> dict:
        return {
            "row_scan_seconds": self.row_scan_seconds,
            "group_seconds": self.group_seconds,
            "query_seconds": self.query_seconds,
            "statement_seconds": self.statement_seconds,
            "aggregate_seconds": self.aggregate_seconds,
            "statements_overlap": self.statements_overlap,
        }


#: Per-backend coefficients. Memory and sqlite are the least-squares fit
#: ``tools/fit_cost_coefficients.py --repeats 5`` printed on a 2-core
#: x86-64 VM (Python 3.11, numpy 2.4, SQLite 3.40): over 126 steps each,
#: predicted/observed per step has a median of 0.93 (memory) and 0.98
#: (sqlite). A fit leaves a unit at 0 when the sweep cannot tell it from
#: another: memory runs one statement per query, and sqlite's fixed
#: per-query cost disappears into its per-row sort. ``statements_overlap``
#: is not fitted; it says which engine holds the interpreter lock. duckdb keeps
#: order-of-magnitude priors: it is unmeasured (the optional wheel was
#: not installed where the sweep ran).
SEEDED_COEFFICIENTS: dict[str, CostCoefficients] = {
    "memory": CostCoefficients(
        row_scan_seconds=1.22e-08,
        group_seconds=4.44e-07,
        query_seconds=6.21e-04,
        statement_seconds=0.0,
        aggregate_seconds=2.16e-09,
        statements_overlap=False,
    ),
    "sqlite": CostCoefficients(
        row_scan_seconds=9.74e-07,
        group_seconds=2.23e-06,
        query_seconds=0.0,
        statement_seconds=1.17e-04,
        aggregate_seconds=4.4e-08,
    ),
    "duckdb": CostCoefficients(
        row_scan_seconds=6e-8,
        group_seconds=4e-7,
        query_seconds=1.0e-4,
        statement_seconds=1.2e-3,
        aggregate_seconds=5e-9,
    ),
}

#: Fallback for backends without a seeded entry.
DEFAULT_COEFFICIENTS = CostCoefficients(
    row_scan_seconds=2e-7,
    group_seconds=5e-7,
    query_seconds=2e-4,
    statement_seconds=6e-4,
    aggregate_seconds=3e-8,
)


def coefficients_for(backend_name: str) -> CostCoefficients:
    """The coefficients plans on ``backend_name`` are priced with."""
    return SEEDED_COEFFICIENTS.get(backend_name, DEFAULT_COEFFICIENTS)


@dataclass
class PlanDecision:
    """What the cost-based planner chose and why, kept for observability.

    Travels on the :class:`~repro.engine.context.ExecutionContext` into
    the :class:`~repro.core.result.RecommendationResult`. After a
    blocking run the engine fills in ``observed_seconds``, so every
    blocking result reports predicted vs observed execute seconds.
    """

    #: Resolved :class:`~repro.optimizer.plan.GroupByCombining` value.
    kind: str
    #: True when the kind was picked by cost comparison (AUTO mode);
    #: False when the configuration pinned it.
    cost_based: bool
    #: The chosen plan's work, summed over its steps.
    predicted: PlanCost
    #: The chosen plan's predicted wall-clock on the claimers its steps
    #: ask for (:func:`wall_seconds`).
    predicted_seconds: float
    #: Predicted wall-clock per candidate, keyed by candidate name: the
    #: kind's value, ``rollup@<cells>`` per rung of the rollup ladder
    #: (one entry when pinned).
    candidate_seconds: "dict[str, float]" = field(default_factory=dict)
    coefficients: "CostCoefficients | None" = None
    sample_fraction: "float | None" = None
    #: Claimers the plan's steps ran on: the execute phase's ask
    #: (:func:`choose_parallelism`) as far as idle cores allowed
    #: (:func:`~repro.optimizer.parallel.claim_cores`); 1 after a phased
    #: run, whose rounds run their steps in turn.
    recommended_workers: int = 1
    #: Wall-clock of the execute phase, filled in by the engine after a
    #: blocking run (None after a phased one).
    observed_seconds: "float | None" = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cost_based": self.cost_based,
            "predicted": self.predicted.as_dict(),
            "predicted_seconds": self.predicted_seconds,
            "candidate_seconds": dict(self.candidate_seconds),
            "coefficients": (
                self.coefficients.to_dict()
                if self.coefficients is not None
                else None
            ),
            "sample_fraction": self.sample_fraction,
            "recommended_workers": self.recommended_workers,
            "observed_seconds": self.observed_seconds,
        }


def estimate_plan_cost(
    plan: ExecutionPlan,
    n_rows: int,
    cardinalities: dict[str, int],
    capabilities: BackendCapabilities,
    sample_fraction: "float | None" = None,
) -> PlanCost:
    """Estimate the work of ``plan``, read from its steps' queries.

    ``n_rows`` is the *base table's* row count; a plan run on a sample of
    ``sample_fraction`` of it scans that share of the rows.
    """
    rows = _priced_rows(n_rows, sample_fraction)
    total = NO_COST
    for step in plan.steps:
        for query in step.queries():
            if isinstance(query, GroupingSetsQuery):
                total += _statement_cost(
                    query.sets, len(query.aggregates), 1,
                    capabilities.grouping_sets, rows, cardinalities,
                )
            else:
                total += _statement_cost(
                    [query.group_by], len(query.aggregates), len(step.groups),
                    True, rows, cardinalities,
                )
    return total


#: Stands in for the flag column in a bin's key sets.
_FLAG = object()


def estimate_bin_costs(
    bins: "list[list[ViewGroup]]",
    kind: GroupByCombining,
    combine_flag: bool,
    n_rows: int,
    cardinalities: dict[str, int],
    capabilities: BackendCapabilities,
    sample_fraction: "float | None" = None,
) -> list[PlanCost]:
    """Per bin, what :func:`estimate_plan_cost` prices the step
    :meth:`~repro.optimizer.plan.Planner.build` would make of it, read
    from the view groups alone, so a candidate is priced without building
    its steps or their queries."""
    rows = _priced_rows(n_rows, sample_fraction)
    prefix = (_FLAG,) if combine_flag else ()
    costs = []
    for members in bins:
        sharing = kind if len(members) > 1 else GroupByCombining.NONE
        merged = combine_flag or sharing is GroupByCombining.ROLLUP
        n_aggregates = len(
            {
                aggregate.alias
                for group in members
                for aggregate in (group.aux if merged else group.own)
            }
        )
        if sharing is GroupByCombining.GROUPING_SETS:
            cost = _statement_cost(
                [prefix + group.keys for group in members], n_aggregates, 1,
                capabilities.grouping_sets, rows, cardinalities,
            )
        else:
            keys = tuple(dict.fromkeys(k for group in members for k in group.keys))
            cost = _statement_cost(
                [prefix + keys], n_aggregates, len(members), True, rows,
                cardinalities,
            )
        costs.append(cost if combine_flag else cost + cost)
    return costs


def wall_seconds(
    step_costs: "list[PlanCost]", coefficients: CostCoefficients, max_workers: int
) -> float:
    """Predicted wall-clock of steps of ``step_costs`` run on the claimers
    :func:`choose_parallelism` asks for. On several claimers, what the
    statements do inside the DBMS spreads over them, while folding their
    result groups is Python under the interpreter lock and runs one at a
    time; no claimer finishes before the dearest step. On one claimer the
    steps take their sum."""
    total = coefficients.predict_seconds(sum(step_costs, NO_COST))
    if not step_costs:
        return total
    claimers = choose_parallelism(
        len(step_costs),
        total / len(step_costs),
        max_workers,
        statements_overlap=coefficients.statements_overlap,
    )
    if claimers == 1:
        return total
    step_seconds = [coefficients.predict_seconds(cost) for cost in step_costs]
    folds = coefficients.group_seconds * sum(c.result_groups for c in step_costs)
    return max(max(step_seconds), (total - folds) / claimers + folds)


def _priced_rows(n_rows: int, sample_fraction: "float | None") -> int:
    if sample_fraction is None:
        return n_rows
    return max(1, int(round(n_rows * sample_fraction)))


def _statement_cost(
    key_sets,
    n_aggregates: int,
    folds: int,
    shared_scan: bool,
    rows: int,
    cardinalities: dict[str, int],
) -> PlanCost:
    """One statement grouping ``rows`` by each of ``key_sets``: one scan
    when ``shared_scan``, else one per set (a UNION ALL emulation); its
    result groups read by ``folds`` view groups each."""
    arms = 1 if shared_scan else len(key_sets)
    groups = sum(min(_set_groups(keys, cardinalities), rows) for keys in key_sets)
    return PlanCost(
        n_queries=arms,
        n_scans=arms,
        rows_scanned=arms * rows,
        result_groups=groups * folds,
        n_statements=1,
        aggregate_work=len(key_sets) * rows * n_aggregates,
    )


def _set_groups(key_set, cardinalities: dict[str, int]) -> int:
    """Upper bound on groups for one group-by key set."""
    groups = 1
    for key in key_set:
        if isinstance(key, str):
            groups *= max(cardinalities.get(key, 1), 1)
        else:  # a flag column doubles the group count
            groups *= 2
    return groups


def choose_plan(
    planner: Planner,
    views: "list[ViewSpec]",
    table: str,
    predicate: "Expression | None",
    cardinalities: dict[str, int],
    capabilities: BackendCapabilities,
    reference: ResolvedReference,
    n_rows: int,
    coefficients: CostCoefficients,
    max_workers: int = 1,
    sample_fraction: "float | None" = None,
) -> "tuple[ExecutionPlan, PlanDecision]":
    """The cheapest of ``planner``'s candidates, built, and the decision.

    Views are grouped once (per grouping the candidates need), each
    candidate arranges the groups into bins, identical bin lists are
    priced once (:func:`estimate_bin_costs`), and only the argmin's steps
    are built. A candidate's price is its predicted wall-clock on up to
    ``max_workers`` claimers (:func:`wall_seconds`): one statement of
    many grouping sets cannot spread over cores the way as many
    statements can. Ties (strict comparison) keep the earlier candidate,
    the capability-declared kind first.
    """
    combine_flag = planner.combine_flag(reference)
    groupings: "dict[bool, list[ViewGroup]]" = {}
    priced: "dict[tuple, tuple[PlanCost, float]]" = {}
    candidate_seconds: dict[str, float] = {}
    best = None
    for candidate in planner.candidates(capabilities):
        per_view = planner.per_view(candidate.kind)
        if per_view not in groupings:
            groupings[per_view] = planner.group_views(views, per_view)
        bins = PLAN_KINDS[candidate.kind].arrange(
            groupings[per_view], candidate.config, cardinalities, combine_flag
        )
        signature = tuple(
            (candidate.kind if len(members) > 1 else None, *map(id, members))
            for members in bins
        )
        if signature not in priced:
            costs = estimate_bin_costs(
                bins,
                candidate.kind,
                combine_flag,
                n_rows,
                cardinalities,
                capabilities,
                sample_fraction,
            )
            priced[signature] = (
                sum(costs, NO_COST),
                wall_seconds(costs, coefficients, max_workers),
            )
        cost, seconds = priced[signature]
        candidate_seconds[candidate.name] = seconds
        if best is None or seconds < best[0]:
            best = (seconds, cost, candidate, bins)
    seconds, cost, candidate, bins = best
    plan = planner.build(
        bins, candidate.kind, table, predicate, combine_flag, reference
    )
    decision = PlanDecision(
        kind=candidate.kind.value,
        cost_based=len(candidate_seconds) > 1,
        predicted=cost,
        predicted_seconds=seconds,
        candidate_seconds=candidate_seconds,
        coefficients=coefficients,
        sample_fraction=sample_fraction,
    )
    return plan, decision


def hoeffding_epsilon(n: int, delta: float = HOEFFDING_DELTA) -> float:
    """Two-sided Hoeffding half-width for a mean of ``n`` [0, 1] samples."""
    if n <= 0:
        return float("inf")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def choose_sample_fraction(
    n_rows: int,
    epsilon: float,
    candidates: "tuple[float, ...]" = SAMPLE_FRACTION_CANDIDATES,
) -> "float | None":
    """Smallest candidate fraction keeping the Hoeffding ε within budget.

    Returns None when no candidate's sampled size bounds the error at
    ``epsilon`` — the caller should then execute exactly.
    """
    best: "float | None" = None
    for fraction in sorted(candidates, reverse=True):
        if hoeffding_epsilon(int(n_rows * fraction)) <= epsilon:
            best = fraction
        else:
            break
    return best


def choose_parallelism(
    n_steps: int,
    per_step_seconds: float,
    max_workers: int,
    statements_overlap: bool = True,
    worker_overhead_seconds: float = 4e-3,
) -> int:
    """Claimers a plan of ``n_steps`` asks for: ``min(max_workers,
    n_steps)`` where parallelism pays, else 1.

    It pays only where statements on different claimers run at once
    (``CostCoefficients.statements_overlap``: not on the in-process numpy
    engine, whose steps hold the interpreter lock) and each step's
    predicted work amortizes the per-worker dispatch overhead ("as the
    number of queries executed in parallel increases, performance
    degrades", §4). The line is where a second claimer began to pay on
    sqlite: on a 2-core x86-64 VM, a plan of ten one-dimension steps ran
    no faster on 2 claimers than on 1 at 4.3 ms priced per step, and
    1.4× faster at 4.7 ms. A sqlite step over the benchmark's 20k-row
    table prices 20-40 ms. How many of the claimers asked for start
    depends on the idle cores (:func:`~repro.optimizer.parallel.claim_cores`).
    """
    if max_workers <= 1 or n_steps <= 1 or not statements_overlap:
        return 1
    if per_step_seconds <= worker_overhead_seconds:
        return 1
    return min(max_workers, n_steps)
