"""Pruning-rule interface and report structure."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.view import ViewSpec
from repro.metadata.collector import TableMetadata


@dataclass
class PruneReport:
    """What one rule removed, with a human-readable reason per view."""

    rule: str
    examined: int = 0
    pruned: list[tuple[ViewSpec, str]] = field(default_factory=list)

    @property
    def n_pruned(self) -> int:
        return len(self.pruned)

    def summary(self) -> str:
        return f"{self.rule}: pruned {self.n_pruned}/{self.examined} views"


class PruningRule:
    """Base class: decide per view whether to keep it.

    Subclasses implement :meth:`reason_to_prune`, returning ``None`` to keep
    a view or a string explaining the prune. Rules may override
    :meth:`prepare` to compute per-table state once (e.g. dimension
    clusters) before individual views are tested.
    """

    #: Registry/report name; subclasses must override.
    name: str = ""

    def prepare(self, views: list[ViewSpec], metadata: TableMetadata) -> None:
        """Hook called once per apply() with the full candidate list."""

    def reason_to_prune(self, view: ViewSpec, metadata: TableMetadata) -> str | None:
        raise NotImplementedError

    def apply(
        self, views: list[ViewSpec], metadata: TableMetadata
    ) -> tuple[list[ViewSpec], PruneReport]:
        """Split ``views`` into kept and pruned-with-reason."""
        self.prepare(views, metadata)
        report = PruneReport(rule=self.name, examined=len(views))
        kept: list[ViewSpec] = []
        for view in views:
            reason = self.reason_to_prune(view, metadata)
            if reason is None:
                kept.append(view)
            else:
                report.pruned.append((view, reason))
        return kept, report
