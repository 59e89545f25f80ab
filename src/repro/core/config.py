"""SeeDB configuration: every knob of the demo's Scenario 2.

"Attendees will also be able to select the optimizations that SEEDB
applies and observe the effect on response times and accuracy" (§4). All
of those toggles live here — metric choice, view-space shape, the three
pruning families, the four query-combining/sampling/parallelism
optimizations — with validation so misconfiguration fails loudly at
construction, not mid-recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.metrics.base import DistanceMetric
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.optimizer.parallel import usable_cores
from repro.optimizer.plan import GroupByCombining, PlannerConfig
from repro.pruning.access_frequency import AccessFrequencyPruner
from repro.pruning.correlation import CorrelationPruner
from repro.pruning.pipeline import PruningPipeline
from repro.pruning.variance import CardinalityPruner, VariancePruner
from repro.util.errors import ConfigError


@dataclass
class SeeDBConfig:
    """All SeeDB knobs, grouped by subsystem. Defaults follow the paper's
    descriptions; everything is overridable per recommendation call."""

    # -- problem statement (§2) ----------------------------------------
    #: Distance metric name (see repro.metrics.available_metrics()).
    metric: str = "js"
    #: How many views to recommend (the k of Problem 2.1).
    k: int = 5
    #: Aggregate functions enumerated per (dimension, measure) pair.
    aggregate_functions: tuple[str, ...] = ("sum", "avg")
    #: Also enumerate one count(*) view per dimension.
    include_count_views: bool = True
    #: Attributes each view groups by: 1 is the paper's prototype; n > 1
    #: enumerates every n-attribute combination in schema order (§2), run
    #: through the same pruning, sampling, pricing and execution.
    n_dimensions: int = 1
    #: Drop views grouping by attributes the query predicate constrains
    #: (they deviate maximally by construction and bury real findings).
    exclude_predicate_dimensions: bool = True
    #: Handling of negative/NaN aggregate values during normalization.
    normalization: NormalizationPolicy = NormalizationPolicy.SHIFT

    # -- view-space pruning (§3.3) ---------------------------------------
    prune_low_variance: bool = True
    min_entropy_bits: float = 0.05
    prune_cardinality: bool = True
    min_groups: int = 2
    max_groups: "int | None" = 250
    prune_correlated: bool = True
    correlation_threshold: float = 0.9
    prune_rare_access: bool = False
    min_access_frequency: float = 0.1
    access_min_history: int = 10

    # -- query optimization (§3.3) ----------------------------------------
    combine_target_comparison: bool = True
    combine_aggregates: bool = True
    #: How view groups share scans. ``AUTO`` prices every plan kind, with
    #: rollups at each budget of
    #: :data:`~repro.optimizer.plan.ROLLUP_BUDGET_LADDER`, and runs the
    #: cheapest; a pinned kind is planned alone (Scenario 2's knob). Every
    #: kind is equivalence-preserving: the choice changes *how* views
    #: execute, never the recommendations.
    groupby_combining: GroupByCombining = GroupByCombining.AUTO
    #: Result cells one rollup query may hold, when ``ROLLUP`` is pinned
    #: (``AUTO`` prices its own ladder of budgets instead).
    memory_budget_cells: int = 100_000
    #: Dimensions one shared query may group by, under every kind.
    max_dims_per_query: int = 8

    # -- sampling (§3.3) ----------------------------------------------------
    #: None disables sampling; otherwise run view queries on a materialized
    #: sample of this fraction of the base table.
    sample_fraction: "float | None" = None
    sample_seed: int = 7
    #: Tables smaller than this run exact even when sampling is enabled.
    min_rows_for_sampling: int = 10_000
    #: Opt-in adaptive sampling: when set (and ``sample_fraction`` is not),
    #: the planner picks the smallest candidate fraction whose sampled size
    #: keeps the Hoeffding ε within this budget. None keeps execution exact
    #: unless ``sample_fraction`` forces otherwise — sampling changes
    #: utilities, so it is never chosen silently.
    auto_sample_epsilon: "float | None" = None

    # -- parallelism (§3.3) ----------------------------------------------------
    #: Upper bound on the claimers one plan's steps run on; defaults to
    #: the usable cores. The execute phase decides the count below it
    #: (:func:`~repro.optimizer.cost.choose_parallelism`): one on a
    #: backend whose statements do not overlap or for steps priced too
    #: cheap to amortize dispatch, else as many as there are steps and
    #: idle cores (:func:`~repro.optimizer.parallel.claim_cores`). ``AUTO``
    #: prices plans on this many claimers, so on sqlite the plan it picks
    #: may change with it.
    n_workers: int = field(default_factory=usable_cores)

    # -- metadata ---------------------------------------------------------------
    #: Row cap when materializing a table for metadata collection.
    metadata_max_rows: int = 200_000

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n_dimensions < 1:
            raise ConfigError(f"n_dimensions must be >= 1, got {self.n_dimensions}")
        if not self.aggregate_functions and not self.include_count_views:
            raise ConfigError("no view aggregates configured")
        if "count" in self.aggregate_functions:
            raise ConfigError(
                "'count' is not an aggregate over a measure; count(*) views "
                "come from include_count_views"
            )
        if self.sample_fraction is not None and not (0.0 < self.sample_fraction <= 1.0):
            raise ConfigError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.auto_sample_epsilon is not None and self.auto_sample_epsilon <= 0:
            raise ConfigError(
                f"auto_sample_epsilon must be > 0, got {self.auto_sample_epsilon}"
            )
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.metadata_max_rows < 1:
            raise ConfigError("metadata_max_rows must be >= 1")
        get_metric(self.metric)  # fail fast on unknown metric names

    # -- derived objects ---------------------------------------------------

    def resolve_metric(self) -> DistanceMetric:
        """The configured :class:`DistanceMetric` instance."""
        return get_metric(self.metric)

    def planner_config(self) -> PlannerConfig:
        """The optimizer's slice of this configuration."""
        return PlannerConfig(
            combine_target_comparison=self.combine_target_comparison,
            combine_aggregates=self.combine_aggregates,
            groupby_combining=self.groupby_combining,
            memory_budget_cells=self.memory_budget_cells,
            max_dims_per_query=self.max_dims_per_query,
        )

    def pruning_pipeline(self) -> PruningPipeline:
        """The configured pruning rules, cheap checks first."""
        rules = []
        if self.prune_low_variance:
            rules.append(VariancePruner(min_entropy_bits=self.min_entropy_bits))
        if self.prune_cardinality:
            rules.append(
                CardinalityPruner(min_groups=self.min_groups, max_groups=self.max_groups)
            )
        if self.prune_correlated:
            rules.append(CorrelationPruner(threshold=self.correlation_threshold))
        if self.prune_rare_access:
            rules.append(
                AccessFrequencyPruner(
                    min_frequency=self.min_access_frequency,
                    min_history=self.access_min_history,
                )
            )
        return PruningPipeline(rules)

    def with_overrides(self, **overrides) -> "SeeDBConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **overrides)
