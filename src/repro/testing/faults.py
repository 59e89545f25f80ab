"""Deterministic fault injection for the chaos suite.

Production code marks its failure seams with :func:`fault_point` calls —
backend query execution, incremental rounds, worker request handling.
With no injector installed (the default, always
in production) a fault point is one global read and a ``None`` check.

Tests install a :class:`FaultInjector` built from :class:`FaultSpec`
schedules. Injection is *seeded and deterministic*: each (point, spec)
pair draws from its own ``random.Random`` stream keyed on
``(seed, point, action)``, so a schedule replays identically regardless of
which other points fire around it. Cluster workers inherit the installed
injector through ``fork`` — install before ``ClusterService.start()``.

Actions:

``stall``  sleep ``delay_s`` then continue (slow query / slow worker).
``hang``   sleep ``delay_s`` (choose it far beyond any deadline) — models
           a wedged dependency; only deadlines get the caller out.
``error``  raise ``error_type`` (default :class:`FaultInjected`).
``die``    ``os._exit(86)`` — models a worker process crash. Never fires
           in the parent service process unless you install it there.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from repro.util.errors import ReproError

__all__ = [
    "FaultInjected",
    "FaultInjector",
    "FaultSpec",
    "fault_point",
    "install_injector",
    "uninstall_injector",
]


class FaultInjected(ReproError):
    """The error raised by ``action="error"`` fault specs."""


@dataclass
class FaultSpec:
    """One fault schedule entry.

    ``probability`` is evaluated per hit on the spec's own seeded stream;
    ``limit`` caps how many times the spec fires (None = unlimited);
    ``after`` skips the first N hits before the spec becomes eligible
    (fire on the Nth+1 hit onward) — the lever for "die on the second
    request" schedules.
    """

    point: str
    action: str  # stall | hang | error | die
    probability: float = 1.0
    delay_s: float = 0.05
    limit: "int | None" = None
    after: int = 0
    error_type: type = FaultInjected
    #: mutable firing state (managed by the injector)
    hits: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)


class FaultInjector:
    """Evaluates fault specs at fault points, deterministically."""

    def __init__(self, specs: "list[FaultSpec]", seed: int = 0):
        self.seed = seed
        self._lock = threading.Lock()
        self._specs: dict[str, list[FaultSpec]] = {}
        self._rngs: dict[int, random.Random] = {}
        for spec in specs:
            self._specs.setdefault(spec.point, []).append(spec)
            self._rngs[id(spec)] = random.Random(
                f"{seed}:{spec.point}:{spec.action}"
            )

    def fired(self, point: "str | None" = None) -> int:
        """How many times specs at ``point`` (or anywhere) have fired."""
        with self._lock:
            specs = (
                self._specs.get(point, [])
                if point is not None
                else [s for group in self._specs.values() for s in group]
            )
            return sum(spec.fired for spec in specs)

    def evaluate(self, point: str) -> "set[str]":
        """Decide which actions fire at ``point`` and apply side effects.

        Returns the actions that fired.
        """
        actions: "set[str]" = set()
        to_apply: "list[FaultSpec]" = []
        with self._lock:
            for spec in self._specs.get(point, ()):
                spec.hits += 1
                if spec.hits <= spec.after:
                    continue
                if spec.limit is not None and spec.fired >= spec.limit:
                    continue
                if self._rngs[id(spec)].random() >= spec.probability:
                    continue
                spec.fired += 1
                actions.add(spec.action)
                to_apply.append(spec)
        for spec in to_apply:
            self._apply(spec)
        return actions

    @staticmethod
    def _apply(spec: FaultSpec) -> None:
        if spec.action in ("stall", "hang"):
            time.sleep(spec.delay_s)
        elif spec.action == "error":
            raise spec.error_type(
                f"injected fault at {spec.point!r}"
            )
        elif spec.action == "die":
            os._exit(86)


#: The process-wide injector; ``None`` means every fault point is a no-op.
_INJECTOR: "FaultInjector | None" = None


def install_injector(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` process-wide (workers inherit it via fork)."""
    global _INJECTOR
    _INJECTOR = injector
    return injector


def uninstall_injector() -> None:
    global _INJECTOR
    _INJECTOR = None


def fault_point(point: str) -> "set[str]":
    """Evaluate ``point`` against the installed injector, if any.

    The production fast path is one module-global read. Returns the set
    of actions that fired.
    """
    injector = _INJECTOR
    if injector is None:
        return _NO_ACTIONS
    return injector.evaluate(point)


_NO_ACTIONS: "frozenset[str]" = frozenset()
