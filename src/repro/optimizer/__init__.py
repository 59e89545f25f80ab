"""View-query optimizer (§3.3 "View Query Optimizations" + Figure 4).

Turns a set of candidate views into an :class:`ExecutionPlan` that
minimizes DBMS work by sharing it:

* **Combine target and comparison** — one query grouped by ``(flag, a)``
  instead of two; the comparison view is recovered by merging partitions.
* **Combine multiple aggregates** — views sharing a group-by attribute
  execute as one multi-aggregate query.
* **Combine multiple group-bys** — several dimensions per query, either via
  shared-scan GROUPING SETS or a multi-attribute rollup whose rows each
  group folds onto its own keys; which dimensions may share a rollup is a
  bin-packing problem over the working-memory budget, solved exactly
  (branch-and-bound, the ILP of the paper) or by first-fit-decreasing.
* **Parallel execution** — independent plan steps run on one bounded,
  process-wide thread pool (:func:`run_steps`).

Every view group's results — both flag partitions, a target/comparison
pair, a rollup's several rows per key, each round of a phased run — fold
into the group's one :class:`GroupState` with one merge, and its view
block is made from there.
"""

from repro.optimizer.combine import GroupState, MergeSpec, merge_spec
from repro.optimizer.binpack import (
    PackedBins,
    branch_and_bound_pack,
    first_fit_decreasing,
    pack_dimensions,
)
from repro.optimizer.plan import (
    ExecutionPlan,
    ExecutionStep,
    GroupByCombining,
    Planner,
    PlannerConfig,
    ViewGroup,
)
from repro.optimizer.parallel import run_steps
from repro.optimizer.cost import (
    CostCoefficients,
    PlanCost,
    PlanDecision,
    choose_parallelism,
    choose_sample_fraction,
    coefficients_for,
    estimate_plan_cost,
    hoeffding_epsilon,
)

__all__ = [
    "MergeSpec",
    "merge_spec",
    "GroupState",
    "PackedBins",
    "branch_and_bound_pack",
    "first_fit_decreasing",
    "pack_dimensions",
    "ExecutionPlan",
    "ExecutionStep",
    "GroupByCombining",
    "Planner",
    "PlannerConfig",
    "ViewGroup",
    "run_steps",
    "CostCoefficients",
    "PlanCost",
    "PlanDecision",
    "choose_parallelism",
    "choose_sample_fraction",
    "coefficients_for",
    "estimate_plan_cost",
    "hoeffding_epsilon",
]
