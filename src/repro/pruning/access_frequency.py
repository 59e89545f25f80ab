"""Access-frequency-based pruning (§3.3).

"SEEDB tracks access patterns for each table to identify the most
frequently accessed columns ... and uses this information to prune
attributes that are rarely accessed and are thus likely to be unimportant."

Frequencies come from the :class:`~repro.metadata.access_log.AccessLog`.
A cold-start guard keeps the rule inert until enough history exists —
otherwise the first query of a session would see every attribute pruned.
"""

from __future__ import annotations

from repro.model.view import ViewSpec
from repro.metadata.collector import TableMetadata
from repro.pruning.base import PruningRule
from repro.util.errors import PruningError


class AccessFrequencyPruner(PruningRule):
    """Prunes views over rarely-accessed dimensions/measures.

    ``min_frequency`` is relative to the most-accessed column of the table
    (1.0 = as popular as the hottest column). ``min_history`` is the number
    of recorded queries below which the rule keeps everything.
    """

    name = "access_frequency"

    def __init__(self, min_frequency: float = 0.1, min_history: int = 10):
        if not (0.0 <= min_frequency <= 1.0):
            raise PruningError(f"min_frequency must be in [0, 1], got {min_frequency}")
        if min_history < 0:
            raise PruningError("min_history must be >= 0")
        self.min_frequency = min_frequency
        self.min_history = min_history

    def reason_to_prune(self, view: ViewSpec, metadata: TableMetadata) -> str | None:
        log = metadata.access_log
        if log.queries_recorded < self.min_history:
            return None
        table = metadata.stats.table_name
        for attribute in filter(None, (*view.keys, view.measure)):
            frequency = log.frequency(table, attribute)
            if frequency < self.min_frequency:
                return (
                    f"attribute {attribute!r} access frequency "
                    f"{frequency:.3f} < {self.min_frequency}"
                )
        return None
