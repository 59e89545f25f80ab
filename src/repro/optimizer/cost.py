"""Plan cost model: deterministic work units + calibrated seconds.

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
  Plans executing against a materialized ``__seedb_sample`` table are
  priced at the sampled row count, not the base table's.
* :class:`CostModel` converts work units into predicted seconds with
  per-backend coefficients seeded in
  :mod:`repro.metadata.calibration` and refined by the engine's
  predicted-vs-observed feedback loop.

The module also hosts the two data-dependent knob selectors the
cost-based planner consults: candidate sampling fractions (bounding the
Hoeffding ε at the sampled size) and the parallelism degree (worker
overhead vs per-step work).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from repro.backends.base import BackendCapabilities
from repro.db.query import GroupingSetsQuery
from repro.metadata.calibration import (
    CalibrationStore,
    CostCoefficients,
    DEFAULT_COEFFICIENTS,
    SEEDED_COEFFICIENTS,
)
from repro.optimizer.plan import ExecutionPlan

#: Parses the knobs out of a cache-materialized sample-table name
#: (``<source>__seedb_sample_<fraction*1e6>_<seed>`` — see
#: :func:`repro.engine.cache.sample_table_name`), which is what lets the
#: estimator recover the effective row count from the plan alone.
_SAMPLE_NAME = re.compile(r"__seedb_sample_(\d+)_\d+$")

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


@dataclass
class PlanDecision:
    """What the cost-based planner chose and why, kept for observability.

    Travels on the :class:`~repro.engine.context.ExecutionContext`, into
    the :class:`~repro.core.result.RecommendationResult`, and out through
    ``/stats`` — and closes the feedback loop: the engine fills in
    ``observed_seconds`` after execution and feeds the predicted/observed
    pair to the :class:`~repro.metadata.calibration.CalibrationStore`.
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
    #: Worker count the cost model recommends (applied only under the
    #: opt-in ``auto_parallelism``; recorded regardless).
    recommended_workers: int = 1
    #: Wall-clock of the execute phase, filled in by the engine.
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


def sample_fraction_from_table(table: str) -> "float | None":
    """The sampling fraction encoded in a sample-table name, else None."""
    match = _SAMPLE_NAME.search(table)
    if match is None:
        return None
    return int(match.group(1)) / 1_000_000


def _effective_rows(
    table: str, n_rows: int, sample_fraction: "float | None"
) -> int:
    """Rows one scan of ``table`` touches: the sampled count for samples."""
    fraction = sample_fraction_from_table(table)
    if fraction is None:
        return n_rows
    if sample_fraction is not None:
        fraction = sample_fraction
    return max(1, int(round(n_rows * fraction)))


def estimate_plan_cost(
    plan: ExecutionPlan,
    n_rows: int,
    cardinalities: dict[str, int],
    capabilities: BackendCapabilities,
    sample_fraction: "float | None" = None,
) -> PlanCost:
    """Estimate queries/scans/rows/groups/statements for ``plan``.

    ``n_rows`` is the *base table's* row count; steps whose table is a
    materialized ``__seedb_sample`` are priced at the effective sampled
    count (``sample_fraction`` overrides the fraction encoded in the
    sample's name when given).
    """
    n_queries = 0
    n_scans = 0
    n_statements = 0
    rows_scanned = 0
    result_groups = 0
    for step in plan.steps:
        step_rows = _effective_rows(step.table, n_rows, sample_fraction)
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


@dataclass(frozen=True)
class CostModel:
    """Work units → predicted seconds, with per-backend coefficients."""

    coefficients: CostCoefficients = field(default=DEFAULT_COEFFICIENTS)

    @classmethod
    def for_backend(
        cls, backend_name: str, calibration: "CalibrationStore | None" = None
    ) -> "CostModel":
        """Seeded (and, when a store is given, calibrated) model."""
        if calibration is not None:
            return cls(coefficients=calibration.coefficients_for(backend_name))
        return cls(
            coefficients=SEEDED_COEFFICIENTS.get(
                backend_name, DEFAULT_COEFFICIENTS
            )
        )

    def predict_seconds(self, cost: PlanCost) -> float:
        return self.coefficients.predict_seconds(cost)


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
    """Worker count where per-step work amortizes the per-worker overhead.

    Parallelism only pays when each claimed worker saves more wall-clock
    than its dispatch overhead costs ("as the number of queries executed
    in parallel increases, performance degrades", §4): steps too cheap to
    amortize the overhead run sequentially.
    """
    if max_workers <= 1 or n_steps <= 1:
        return 1
    if per_step_seconds <= worker_overhead_seconds:
        return 1
    return max(1, min(max_workers, n_steps))
