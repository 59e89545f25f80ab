"""Phase-based execution engine: the one pipeline behind every strategy.

Figure 4 names the stages — Metadata Collector, Query Generator,
Optimizer, DBMS, View Processor, top-k — and this package makes each an
explicit, independently timed, swappable :class:`Phase`. The batch
recommender and incremental (phased + Hoeffding-pruned) execution are
phase lists over the same :class:`ExecutionEngine`, and multi-attribute
views (``SeeDBConfig.n_dimensions`` > 1) run either one. The engine owns
the session cache; plan steps run on the process-wide bounded worker pool
(:func:`~repro.optimizer.parallel.run_steps`).
"""

from repro.engine.cache import SAMPLE_SUFFIX, CacheStats, EngineCache, SessionCache
from repro.engine.context import ExecutionContext, describe_predicate
from repro.engine.engine import ExecutionEngine
from repro.engine.incremental import (
    BOUNDED_METRICS,
    IncrementalRound,
    IncrementalScorePhase,
    IncrementalTrace,
    PhasedExecutePhase,
    TRACE_KEY,
)
from repro.engine.phases import (
    EnumeratePhase,
    ExecutePhase,
    MetadataPhase,
    Phase,
    PlanPhase,
    PrunePhase,
    SamplePhase,
    ScorePhase,
    SelectPhase,
    default_phases,
)

__all__ = [
    "ExecutionEngine",
    "ExecutionContext",
    "SessionCache",
    "EngineCache",
    "CacheStats",
    "SAMPLE_SUFFIX",
    "describe_predicate",
    "Phase",
    "MetadataPhase",
    "EnumeratePhase",
    "PrunePhase",
    "SamplePhase",
    "PlanPhase",
    "ExecutePhase",
    "ScorePhase",
    "SelectPhase",
    "default_phases",
    "PhasedExecutePhase",
    "IncrementalRound",
    "IncrementalScorePhase",
    "IncrementalTrace",
    "BOUNDED_METRICS",
    "TRACE_KEY",
]
