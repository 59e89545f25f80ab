"""Resolved reference specs: which rows the comparison view ranges over.

The paper fixes the comparison view to the whole table ``D`` (§2), but the
deviation contract is really parameterized by a *reference*: target
distribution from the analyst's selection, comparison distribution from
some other row set. This leaf module holds the engine-facing resolved form
— the user-facing declarative :class:`repro.api.Reference` resolves to one
of these against a concrete target query, and the planner / incremental
executor read it to decide how comparison-side queries are built:

* ``table`` — comparison over all of ``D`` (the paper's §2 definition and
  the historical behavior). The comparison side does not depend on the
  predicate: a blocking plan takes it from the engine cache, computed
  once per data version by one predicate-free query, and issues only the
  target queries; a phased round's flag query yields it as the merge of
  both flag partitions.
* ``complement`` — comparison over ``D ∖ D_Q`` (the demo paper's "compare
  against everything else"). Flag-combinable; the comparison series is the
  flag=0 partition alone.
* ``query`` — comparison over the rows of an arbitrary second selection on
  the same table (query-vs-query, temporal slices). Not flag-combinable:
  the two row sets may overlap, so one 0/1 flag cannot partition them —
  the planner falls back to separate target/comparison queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.expressions import Expression

#: Legal ``ResolvedReference.kind`` values.
REFERENCE_KINDS = ("table", "complement", "query")


@dataclass(frozen=True)
class ResolvedReference:
    """Engine-facing reference: a kind plus the comparison-side predicate.

    ``predicate`` is what a *separate* comparison query filters on:
    ``None`` for ``table`` (whole table), ``Not(target predicate)`` for
    ``complement``, the second query's predicate for ``query``.
    """

    kind: str = "table"
    predicate: "Expression | None" = None

    def __post_init__(self) -> None:
        if self.kind not in REFERENCE_KINDS:
            raise ValueError(
                f"reference kind must be one of {REFERENCE_KINDS}, "
                f"got {self.kind!r}"
            )

    @property
    def flag_combinable(self) -> bool:
        """Whether one 0/1 flag column can serve both sides of this
        comparison (target and comparison row sets must be disjoint or
        nested, which holds for ``table`` and ``complement`` but not for
        an arbitrary second query)."""
        return self.kind != "query"

    @property
    def merge_partitions(self) -> bool:
        """Whether the comparison is the whole table, whatever the
        predicate (``table``: comparison = D, cacheable per data version,
        or both partitions of a flag-combined result merged) rather than
        the flag=0 partition alone (``complement``: comparison = D ∖ D_Q)."""
        return self.kind == "table"

    def describe(self) -> str:
        """Deterministic rendering for cache keys and plan descriptions."""
        if self.kind == "table":
            return "table"
        if self.predicate is None:
            return self.kind
        from repro.backends.sqlgen import render_expression
        from repro.util.errors import QueryError

        try:
            rendered = render_expression(self.predicate)
        except QueryError:
            rendered = repr(self.predicate)
        return f"{self.kind}[{rendered}]"


#: The default reference: comparison over the entire table (paper §2).
TABLE_REFERENCE = ResolvedReference("table")
