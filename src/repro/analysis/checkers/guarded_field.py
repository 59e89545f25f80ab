"""guarded-field: ``# guarded-by: _lock`` annotations, enforced.

**Rule.** A class attribute annotated on its defining assignment with
``# guarded-by: <lock_attr>`` may only be read or written:

* inside a ``with self.<lock_attr>:`` block (any lock expression that
  resolves, via static MRO walk, to the same defining class attribute);
* in ``__init__`` (construction precedes sharing);
* in a method whose docstring declares the convention this codebase
  already uses for internal helpers: "caller holds ... lock".

Everything else is a race waiting for a schedule and is reported. The
annotation goes on the assignment line in ``__init__`` (or a class-body
assignment for class-level state), e.g.::

    self._pending = {}  # guarded-by: _lock

Accesses through aliases (``cache._leases``) and closures are invisible
to this pass — it checks ``self.X`` / ``cls.X`` only, which is how all
annotated state in this codebase is touched.

Suppress with ``# seedb-lint: disable=guarded-field -- <reason>``.
"""

from __future__ import annotations

import re

from repro.analysis.core import Checker, ProgramFacts, Violation, register

_CALLER_HOLDS_RE = re.compile(r"caller holds[^.\n]*lock", re.IGNORECASE)


@register
class GuardedFieldChecker(Checker):
    rule = "guarded-field"
    description = (
        "reads/writes of '# guarded-by:' annotated attributes outside a "
        "guarding with-block"
    )

    def check(self, program: ProgramFacts) -> "list[Violation]":
        violations: list[Violation] = []
        for class_name, (facts, module) in program.classes.items():
            guarded = self._guarded_fields(program, class_name)
            if not guarded:
                continue
            for method in self._all_methods(program, class_name, facts):
                if method.name == "__init__":
                    continue
                if _CALLER_HOLDS_RE.search(method.docstring):
                    continue
                for access in method.accesses:
                    guard_node = guarded.get(access.attr)
                    if guard_node is None:
                        continue
                    if self._under_guard(
                        program, method, module, guard_node, access.line
                    ):
                        continue
                    violations.append(
                        Violation(
                            rule=self.rule,
                            path=module.path,
                            line=access.line,
                            message=(
                                f"{'write to' if access.is_store else 'read of'} "
                                f"{class_name}.{access.attr} outside its "
                                f"guard {guard_node} "
                                f"(in {method.qualname})"
                            ),
                        )
                    )
        return violations

    @staticmethod
    def _guarded_fields(
        program: ProgramFacts, class_name: str
    ) -> "dict[str, str]":
        """field attr -> resolved guard lock node, MRO-inherited."""
        out: dict[str, str] = {}
        for name in reversed(program.mro(class_name)):
            facts = program.classes[name][0]
            for attr, (guard_attr, _) in facts.guarded.items():
                resolved = program.resolve_lock(class_name, guard_attr)
                out[attr] = resolved or f"{name}.{guard_attr}"
        return out

    @staticmethod
    def _all_methods(program: ProgramFacts, class_name: str, facts):
        """The class's own methods plus closures defined inside them."""
        module = program.classes[class_name][1]
        own = set()
        for method in facts.methods.values():
            own.add(method.qualname)
            yield method
        for function in module.functions:
            if (
                function.class_name == class_name
                and function.qualname not in own
                and any(
                    function.qualname.startswith(prefix + ".")
                    for prefix in own
                )
            ):
                yield function

    @staticmethod
    def _under_guard(
        program: ProgramFacts, method, module, guard_node: str, line: int
    ) -> bool:
        for chain, start, end in method.lock_spans:
            if not (start <= line <= end):
                continue
            node = program.lock_node(chain, method, module)
            if node == guard_node:
                return True
        return False
