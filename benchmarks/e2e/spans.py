"""In-memory span recorder for the traced pass.

Spans are recorded by the benchmark around public calls into each layer
(nothing under ``src/`` is instrumented), kept in a list, and written out
once when the run ends. One tracer is used by one thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    op_id: "int | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, op_id: "int | None" = None):
        parent = self._open[-1] if self._open else None
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            op_id=op_id,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [span.duration for span in self.spans if span.name == name]

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result
