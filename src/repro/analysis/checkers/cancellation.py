"""cancellation-coverage: long-running loops must observe cancellation.

**Rule.** In the engine's phase/round machinery and the service/cluster
dispatch paths, any outermost loop that performs potentially long or
blocking work — backend statement execution, pipe ``recv``, unbounded
``wait`` / ``join`` / ``result`` / queue ``get`` — must reach a
``Deadline`` / ``CancelToken`` checkpoint: a reference to the
cancellation vocabulary (``token`` / ``deadline`` / ``check_cancel`` /
``check_current`` / ``should_stop`` / ``expired`` / ``is_set`` /
``_closing`` / ``_done`` / ...) in the loop's condition or body, or every
blocking call in the loop carrying an explicit timeout (a bounded wait is
its own checkpoint).

Scope is the module list below — the places the lifecycle contract
("every request terminates within deadline + grace") depends on. Loops
that are cancellation-free *by design* (the worker dispatch loop exits
via its shutdown op and parent-death heartbeat) carry an inline waiver
with the reason.

Suppress with ``# seedb-lint: disable=cancellation -- <reason>``.
"""

from __future__ import annotations

from repro.analysis.core import Checker, ProgramFacts, Violation, register
from repro.analysis.facts import CallSite, LoopFacts

#: Modules whose loops the lifecycle contract depends on.
SCOPE = (
    "engine/phases.py",
    "engine/incremental.py",
    "engine/engine.py",
    "optimizer/parallel.py",
    "optimizer/plan.py",
    "service/service.py",
    "service/cluster.py",
    "service/worker.py",
)

#: Attribute calls that are long/blocking wherever they appear.
ALWAYS_BLOCKING = ("execute", "execute_grouping_sets", "recv", "fetch_table")
#: Attribute calls that are blocking only without a timeout.
UNBOUNDED_BLOCKING = ("wait", "join", "result")
QUEUE_RECEIVERS = ("inbox", "outbox", "queue", "requests")

#: Names whose presence in a loop marks a cancellation checkpoint.
CHECK_NAMES = {
    "check",
    "check_cancel",
    "check_cancelled",
    "check_current",
    "should_stop",
    "expired",
    "remaining",
    "is_set",
    "fault_point",  # fault points double as cancel checkpoints in tests
}
CHECK_SUBSTRINGS = ("token", "deadline", "cancel")
CHECK_SUFFIXES = ("_closing", "_done", "_stop", "closing", "stopping")


def _blocking_calls(loop: LoopFacts) -> "list[CallSite]":
    out: list[CallSite] = []
    for site in loop.calls:
        attr = site.attr
        last = site.receiver[-1] if site.receiver else ""
        if attr in ALWAYS_BLOCKING:
            out.append(site)
        elif attr in UNBOUNDED_BLOCKING and not site.has_timeout:
            out.append(site)
        elif (
            attr == "get"
            and not site.has_timeout
            and any(fragment in last for fragment in QUEUE_RECEIVERS)
        ):
            out.append(site)
    return out


def _has_checkpoint(loop: LoopFacts) -> bool:
    for name in loop.names:
        if name in CHECK_NAMES:
            return True
        lowered = name.lower()
        if any(sub in lowered for sub in CHECK_SUBSTRINGS):
            return True
        if any(lowered.endswith(suffix) for suffix in CHECK_SUFFIXES):
            return True
    return False


@register
class CancellationChecker(Checker):
    rule = "cancellation"
    description = (
        "long-running loops in the engine/service that never reach a "
        "Deadline/CancelToken check"
    )

    def check(self, program: ProgramFacts) -> "list[Violation]":
        violations: list[Violation] = []
        for module in program.modules:
            norm = module.path.replace("\\", "/")
            if not any(norm.endswith(scoped) for scoped in SCOPE):
                continue
            for function in module.functions:
                for loop in function.loops:
                    self._check_loop(loop, function, module, violations)
        return violations

    def _check_loop(self, loop, function, module, violations) -> None:
        blocking = _blocking_calls(loop)
        long_running = bool(blocking) or loop.is_while_true
        if not long_running:
            # Descend: an inner loop may still be the long-running one.
            for child in loop.children:
                self._check_loop(child, function, module, violations)
            return
        if _has_checkpoint(loop):
            # The loop (or something it encloses) observes cancellation;
            # inner loops iterate between those checks.
            return
        if blocking and all(site.has_timeout for site in blocking):
            return  # every wait is bounded — its own checkpoint
        what = (
            f"blocking on {blocking[0].text}()"
            if blocking
            else "an unbounded 'while True'"
        )
        violations.append(
            Violation(
                rule=self.rule,
                path=module.path,
                line=loop.line,
                message=(
                    f"loop in {function.qualname} ({what}) never reaches a "
                    "Deadline/CancelToken check; add a token/deadline "
                    "checkpoint or an explicit waiver"
                ),
            )
        )
