"""Correlated-attribute pruning (§3.3).

"If two dimension attributes a_i and a_j have a high degree of correlation
(e.g. full name of airport and abbreviated name of airport), the views
generated by grouping the table on a_i and a_j will be very similar ...
SEEDB clusters attributes based on correlation and evaluates a
representative view per cluster."

Clustering: build a graph over dimension attributes with an edge wherever
the pairwise association (Cramér's V for categoricals, |Pearson| for
numerics — precomputed by the metadata collector) is at or above the
threshold, then take connected components (union-find). Each cluster
elects one representative; views over non-representative members are
pruned and annotated with their representative so the frontend can say
"see <representative> instead". A multi-attribute view is kept only when
each of its keys represents its cluster.
"""

from __future__ import annotations

from repro.model.view import ViewSpec
from repro.metadata.collector import TableMetadata
from repro.pruning.base import PruningRule
from repro.util.errors import PruningError


def cluster_dimensions(
    dimensions: list[str],
    metadata: TableMetadata,
    threshold: float,
) -> list[list[str]]:
    """Partition ``dimensions`` into association clusters.

    Returns clusters as lists (deterministic order: members sorted,
    clusters sorted by first member). Unassociated attributes come back as
    singleton clusters.
    """
    parent = {name: name for name in dimensions}

    def root(name: str) -> str:
        while parent[name] != name:
            parent[name] = name = parent[parent[name]]
        return name

    for i, dim_a in enumerate(dimensions):
        for dim_b in dimensions[i + 1 :]:
            if metadata.association(dim_a, dim_b) >= threshold:
                parent[root(dim_a)] = root(dim_b)
    components: dict[str, list[str]] = {}
    for name in dimensions:
        components.setdefault(root(name), []).append(name)
    clusters = [sorted(component) for component in components.values()]
    return sorted(clusters, key=lambda cluster: cluster[0])


class CorrelationPruner(PruningRule):
    """Keeps one representative dimension per association cluster.

    The representative is the member the analyst most often accesses
    (access-log frequency); ties break toward higher entropy (more
    informative spread) and then lexicographic name for determinism.
    """

    name = "correlation"

    def __init__(self, threshold: float = 0.9):
        if not (0.0 < threshold <= 1.0):
            raise PruningError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self._representative: dict[str, str] = {}

    def prepare(self, views: list[ViewSpec], metadata: TableMetadata) -> None:
        dimensions = sorted({key for view in views for key in view.keys})
        table = metadata.stats.table_name
        self._representative = {}
        for cluster in cluster_dimensions(dimensions, metadata, self.threshold):
            representative = max(
                cluster,
                key=lambda name: (
                    metadata.access_log.frequency(table, name),
                    metadata.stats[name].entropy,
                    # Negative-lexicographic tiebreak so max() picks the
                    # alphabetically first name deterministically.
                    tuple(-ord(c) for c in name),
                ),
            )
            for member in cluster:
                self._representative[member] = representative

    def reason_to_prune(self, view: ViewSpec, metadata: TableMetadata) -> str | None:
        for key in view.keys:
            representative = self._representative.get(key, key)
            if representative != key:
                return (
                    f"dimension {key!r} is correlated with "
                    f"{representative!r} (association >= {self.threshold}); "
                    f"the representative view covers it"
                )
        return None
