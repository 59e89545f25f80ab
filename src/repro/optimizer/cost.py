"""Plan cost model: deterministic work units + per-backend seconds.

Two layers, mirroring the ``StatInfo`` / ``blocks_accessed`` ×
``reduction_factor`` idiom of classic cost-based planners:

* :func:`estimate_plan_cost` prices a plan in machine-independent work
  units — rows scanned, result groups materialized, logical queries,
  physical statements. The unit costs mirror the engine's accounting: a
  query = one scan of its base table; a grouping-sets query = one scan
  and one logical query on backends with native support, one scan and one
  logical query *per set* otherwise (still a single UNION ALL statement).
  Pricing reads a step's ``queries()`` only: rollup marginalization
  re-reads the small result, not the base table, and is not counted.
  A sampled run is priced at the sampled row count, not the base table's.
* :class:`CostCoefficients` converts work units into predicted seconds.
  The coefficients are fixed per backend (:func:`coefficients_for`), so
  a plan's price is a pure function of the plan, the statistics and the
  backend name: the same request is priced the same in every process,
  on its first run and its hundredth.

The module also hosts the two data-dependent knob selectors the engine
consults: candidate sampling fractions (bounding the Hoeffding ε at the
sampled size) and the parallelism degree (worker overhead vs per-step
work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.backends.base import BackendCapabilities
from repro.db.query import GroupingSetsQuery
from repro.optimizer.plan import ExecutionPlan

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
    #: Upper bound on result groups materialized across all queries.
    result_groups: int
    #: Physical DBMS statements (round trips), matching
    #: ``Backend.statements_executed``: a UNION ALL batch is one.
    n_statements: int = 0

    def as_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_scans": self.n_scans,
            "rows_scanned": self.rows_scanned,
            "result_groups": self.result_groups,
            "n_statements": self.n_statements,
        }


@dataclass(frozen=True)
class CostCoefficients:
    """Seconds per cost-model work unit on one backend."""

    #: Seconds per base-table row scanned.
    row_scan_seconds: float
    #: Seconds per result group materialized.
    group_seconds: float
    #: Fixed seconds per logical query (per grouping-set arm: rendering,
    #: result decode, per-arm evaluation in a UNION ALL emulation).
    query_seconds: float
    #: Fixed seconds per physical statement (round trip, parse, plan).
    statement_seconds: float

    def predict_seconds(self, cost: PlanCost) -> float:
        """Predicted wall-clock of a :class:`PlanCost`."""
        return (
            self.row_scan_seconds * cost.rows_scanned
            + self.group_seconds * cost.result_groups
            + self.query_seconds * cost.n_queries
            + self.statement_seconds * cost.n_statements
        )

    def to_dict(self) -> dict:
        return {
            "row_scan_seconds": self.row_scan_seconds,
            "group_seconds": self.group_seconds,
            "query_seconds": self.query_seconds,
            "statement_seconds": self.statement_seconds,
        }


#: Per-backend coefficients (order-of-magnitude priors). Only their
#: relative shape matters for plan choice: the memory engine has
#: near-zero statement overhead, sqlite pays per prepared statement,
#: duckdb pays more per statement but scans columnar-fast.
SEEDED_COEFFICIENTS: dict[str, CostCoefficients] = {
    "memory": CostCoefficients(
        row_scan_seconds=6e-9,
        group_seconds=2.5e-7,
        query_seconds=1.5e-4,
        statement_seconds=0.0,
    ),
    "sqlite": CostCoefficients(
        row_scan_seconds=2.2e-7,
        group_seconds=5e-7,
        query_seconds=1.5e-4,
        statement_seconds=8e-4,
    ),
    "duckdb": CostCoefficients(
        row_scan_seconds=6e-8,
        group_seconds=4e-7,
        query_seconds=1.0e-4,
        statement_seconds=1.2e-3,
    ),
}

#: Fallback for backends without a seeded entry.
DEFAULT_COEFFICIENTS = CostCoefficients(
    row_scan_seconds=2e-7,
    group_seconds=5e-7,
    query_seconds=2e-4,
    statement_seconds=6e-4,
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
    predicted: PlanCost
    predicted_seconds: float
    #: Predicted seconds per candidate mode (one entry when pinned).
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
    """Estimate queries/scans/rows/groups/statements for ``plan``.

    ``n_rows`` is the *base table's* row count; a plan run on a sample of
    ``sample_fraction`` of it scans that share of the rows.
    """
    step_rows = (
        n_rows
        if sample_fraction is None
        else max(1, int(round(n_rows * sample_fraction)))
    )
    n_queries = 0
    n_scans = 0
    n_statements = 0
    rows_scanned = 0
    result_groups = 0
    for step in plan.steps:
        for query in step.queries():
            n_statements += 1
            if isinstance(query, GroupingSetsQuery):
                sets = len(query.sets)
                arms = 1 if capabilities.grouping_sets else sets
                n_queries += arms
                n_scans += arms
                rows_scanned += arms * step_rows
                for key_set in query.sets:
                    result_groups += _set_groups(key_set, cardinalities)
            else:
                n_queries += 1
                n_scans += 1
                rows_scanned += step_rows
                result_groups += _set_groups(query.group_by, cardinalities)
    return PlanCost(
        n_queries=n_queries,
        n_scans=n_scans,
        rows_scanned=rows_scanned,
        result_groups=result_groups,
        n_statements=n_statements,
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
    worker_overhead_seconds: float = 2e-3,
) -> int:
    """Claimers a plan of ``n_steps`` asks for: ``min(max_workers,
    n_steps)`` where parallelism pays, else 1.

    It pays only when each step's predicted work amortizes the
    per-worker dispatch overhead ("as the number of queries executed in
    parallel increases, performance degrades", §4). The price decides
    alone, per backend through its coefficients: a step over 20k rows
    prices near 0.3 ms on memory and stays sequential, and several
    milliseconds on sqlite and does not. How many of the
    claimers asked for start depends on the idle cores
    (:func:`~repro.optimizer.parallel.claim_cores`).
    """
    if max_workers <= 1 or n_steps <= 1:
        return 1
    if per_step_seconds <= worker_overhead_seconds:
        return 1
    return min(max_workers, n_steps)
