"""counter-accounting: no statement-execution seam bypasses the counters.

**Rule.** In ``backends/``, every method of a ``Backend`` subclass that
executes a raw statement — an ``.execute(...)`` on a connection-, cursor-
or engine-shaped receiver — must route its accounting through exactly the
seams the conformance suite audits: a direct call to
``_record_queries`` / ``_record_metadata_queries``, or a call to a
same-class helper that records directly (one interprocedural hop, which
covers the ``_run`` / ``_run_to_table`` wrappers the
SQL backends funnel everything through).

Data-management methods (``register_table``, ``drop_table``,
``create_sample``, connection setup, ``close``) are exempt: DDL and bulk
loads are deliberately uncounted — ``queries_executed`` /
``statements_executed`` / ``metadata_queries_executed`` measure the
paper's query-sharing effects, not maintenance traffic. A deliberate
uncounted seam (the memory backend counts inside its query engine's
stats lock instead) carries an inline suppression with its reason.

Suppress with ``# seedb-lint: disable=counter-accounting -- <reason>``.
"""

from __future__ import annotations

from repro.analysis.core import Checker, ProgramFacts, Violation, register
from repro.analysis.facts import CallSite

#: Receiver roots/parts that mark an ``execute`` as a raw statement.
RAW_RECEIVER_PARTS = ("connection", "cursor", "con", "engine", "_connection")
RECORDERS = ("_record_queries", "_record_metadata_queries")
#: Methods allowed to execute raw statements without accounting:
#: construction, data (DDL/load) management, and teardown.
EXEMPT_METHODS = {
    "__init__",
    "close",
    "register_table",
    "register_derived",
    "drop_table",
    "create_sample",
    "create_sample_clientside",
    "_connect",
    "_connection",
    "_setup",
    "_require_table",
}


def _is_raw_execute(site: CallSite) -> bool:
    if site.attr != "execute":
        return False
    return any(
        part in RAW_RECEIVER_PARTS
        or any(part.startswith(root) for root in ("_connection", "cursor"))
        for part in site.receiver
    )


@register
class CounterAccountingChecker(Checker):
    rule = "counter-accounting"
    description = (
        "backend statement-execution paths that bypass "
        "queries/statements/metadata accounting"
    )

    def check(self, program: ProgramFacts) -> "list[Violation]":
        violations: list[Violation] = []
        for class_name, (facts, module) in program.classes.items():
            if "backends" not in module.path.replace("\\", "/"):
                continue
            if "Backend" not in program.mro(class_name) and not any(
                base.endswith("Backend") for base in facts.bases
            ):
                continue
            recording = self._recording_methods(program, class_name)
            for method in facts.methods.values():
                if method.name in EXEMPT_METHODS:
                    continue
                raw_sites = [s for s in method.calls if _is_raw_execute(s)]
                if not raw_sites:
                    continue
                if self._records(method, recording):
                    continue
                site = raw_sites[0]
                violations.append(
                    Violation(
                        rule=self.rule,
                        path=module.path,
                        line=site.line,
                        message=(
                            f"{class_name}.{method.name} executes a raw "
                            f"statement ({site.text}) without recording it "
                            "via _record_queries/_record_metadata_queries "
                            "(directly or through a recording helper)"
                        ),
                    )
                )
        return violations

    @staticmethod
    def _recording_methods(program: ProgramFacts, class_name: str) -> set:
        """Same-class (MRO-wide) methods that record counters directly."""
        out: set = set()
        for name in program.mro(class_name):
            for method in program.classes[name][0].methods.values():
                if any(site.attr in RECORDERS for site in method.calls):
                    out.add(method.name)
        return out

    @staticmethod
    def _records(method, recording: set) -> bool:
        for site in method.calls:
            if site.attr in RECORDERS:
                return True
            if site.chain[0] in ("self", "cls") and site.attr in recording:
                return True
        return False
