"""SQL generation: render logical queries to SQL text.

Targets the SQLite dialect but sticks to vanilla SQL-92 for everything
except VAR/STD (emulated arithmetically) so the generated text would run on
PostgreSQL/MySQL too. Identifiers are double-quoted and literals escaped
here, never by string interpolation at call sites.
"""

from __future__ import annotations

from datetime import date
from typing import Any

import numpy as np

from repro.db.aggregates import Aggregate
from repro.db.expressions import (
    And,
    Between,
    Comparison,
    Expression,
    In,
    Not,
    Or,
    RowPartition,
    TruePredicate,
)
from repro.db.query import (
    AggregateQuery,
    FlagColumn,
    GroupingKey,
    GroupingSetsQuery,
    RowSelectQuery,
    grouping_key_name,
)
from repro.util.errors import QueryError


def quote_identifier(name: str) -> str:
    """Double-quote an identifier, doubling embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


def render_literal(value: Any) -> str:
    """Render a Python/numpy scalar as a SQL literal."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value != value:
            raise QueryError("cannot render NaN as a SQL literal")
        return repr(value)
    if isinstance(value, np.datetime64):
        return "'" + str(value) + "'"
    if isinstance(value, date):
        return "'" + value.isoformat() + "'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise QueryError(f"cannot render literal of type {type(value).__name__}")


def render_expression(expression: Expression, rowid_base: int = 1) -> str:
    """Render a predicate AST to a SQL boolean expression. ``rowid_base`` is
    the dialect's first ``rowid`` (1 on SQLite, 0 on DuckDB): what turns it
    into the 0-based load position a ``RowPartition`` selects on."""
    if isinstance(expression, TruePredicate):
        return "1=1"
    if isinstance(expression, Comparison):
        column = quote_identifier(expression.column.name)
        literal = render_literal(expression.literal.value)
        operator = "<>" if expression.op == "!=" else expression.op
        return f"{column} {operator} {literal}"
    if isinstance(expression, In):
        column = quote_identifier(expression.column.name)
        if not expression.values:
            return "1=0"
        rendered = ", ".join(render_literal(v) for v in expression.values)
        return f"{column} IN ({rendered})"
    if isinstance(expression, Between):
        column = quote_identifier(expression.column.name)
        low = render_literal(expression.low)
        high = render_literal(expression.high)
        return f"{column} BETWEEN {low} AND {high}"
    if isinstance(expression, (And, Or)):
        word = " AND " if isinstance(expression, And) else " OR "
        operands = (render_expression(op, rowid_base) for op in expression.operands)
        return "(" + word.join(operands) + ")"
    if isinstance(expression, Not):
        return "NOT (" + render_expression(expression.operand, rowid_base) + ")"
    if isinstance(expression, RowPartition):
        position = f"(rowid - {rowid_base})" if rowid_base else "rowid"
        return f"{position} % {expression.of} = {expression.index}"
    raise QueryError(f"cannot render expression type {type(expression).__name__}")


def render_aggregate(aggregate: Aggregate, native_var_std: bool = False) -> str:
    """Render one SELECT-list aggregate with its alias.

    VAR/STD have no standard SQL form; unless the dialect provides them
    natively they are emulated with AVG arithmetic (population variance)
    and a ``sqrt`` function the backend must supply.
    """
    alias = quote_identifier(aggregate.alias)
    if aggregate.column is None:
        return f"COUNT(*) AS {alias}"
    column = quote_identifier(aggregate.column)
    if aggregate.func in ("sum", "avg", "min", "max"):
        return f"{aggregate.func.upper()}({column}) AS {alias}"
    if aggregate.func == "countv":
        return f"COUNT({column}) AS {alias}"
    if aggregate.func == "sumsq":
        return f"SUM({column} * {column}) AS {alias}"
    if aggregate.func in ("var", "std"):
        if native_var_std:
            native = {"var": "VAR_POP", "std": "STDDEV_POP"}[aggregate.func]
            return f"{native}({column}) AS {alias}"
        variance = (
            f"AVG(({column}) * ({column})) - AVG({column}) * AVG({column})"
        )
        if aggregate.func == "var":
            return f"{variance} AS {alias}"
        return f"sqrt(MAX({variance}, 0)) AS {alias}"
    raise QueryError(f"cannot render aggregate {aggregate.func!r} to SQL")


def render_grouping_key(key: GroupingKey) -> tuple[str, str]:
    """Render one group-by key; returns (select_item, group_by_expression)."""
    if isinstance(key, FlagColumn):
        case = f"CASE WHEN {render_expression(key.predicate)} THEN 1 ELSE 0 END"
        return f"{case} AS {quote_identifier(key.name)}", case
    quoted = quote_identifier(key)
    return quoted, quoted


def render_aggregate_query(
    query: AggregateQuery, native_var_std: bool = False, rowid_base: int = 1
) -> str:
    """Full SELECT for an aggregate view query, deterministically ordered."""
    select_items: list[str] = []
    group_expressions: list[str] = []
    for key in query.group_by:
        select_item, group_expression = render_grouping_key(key)
        select_items.append(select_item)
        group_expressions.append(group_expression)
    for aggregate in query.aggregates:
        select_items.append(render_aggregate(aggregate, native_var_std))

    sql = f"SELECT {', '.join(select_items)} FROM {quote_identifier(query.table)}"
    if query.predicate is not None:
        sql += f" WHERE {render_expression(query.predicate, rowid_base)}"
    if group_expressions:
        # Ordinal references (GROUP BY 1, 2) avoid re-evaluating flag CASE
        # expressions per clause; supported by SQLite and PostgreSQL alike.
        ordinals = ", ".join(str(i + 1) for i in range(len(group_expressions)))
        sql += f" GROUP BY {ordinals} ORDER BY {ordinals}"
    return sql


def union_grouping_keys(query: GroupingSetsQuery) -> "list[GroupingKey]":
    """The query's grouping keys deduped across sets, in first-seen order.

    This order *is* the combined statement's key-column order — the
    renderers and the backends' result splitting all derive from it, so
    it exists exactly once.
    """
    union_keys: list[GroupingKey] = []
    seen: set[str] = set()
    for key_set in query.sets:
        for key in key_set:
            name = grouping_key_name(key)
            if name not in seen:
                seen.add(name)
                union_keys.append(key)
    return union_keys


def union_key_positions(query: GroupingSetsQuery) -> dict[str, int]:
    """``{key name -> column position}`` within the combined result."""
    return {
        grouping_key_name(key): index
        for index, key in enumerate(union_grouping_keys(query))
    }


def render_grouping_sets_union(
    query: GroupingSetsQuery,
    native_var_std: bool = False,
    set_column: str = "__seedb_set",
    rowid_base: int = 1,
) -> str:
    """One UNION ALL statement emulating GROUPING SETS on dialects without it.

    Every grouping set becomes one SELECT arm sharing the table scan plan's
    round trip: the arm carries its set ordinal in ``set_column``, its own
    grouping keys in their union-wide columns (:func:`union_grouping_keys`
    order), and NULL for keys belonging to other sets (the same row layout
    native GROUPING SETS produces). Rows are ordered by set then key so
    each set's slice is contiguous.
    """
    union_keys = union_grouping_keys(query)

    arms: list[str] = []
    for set_index, key_set in enumerate(query.sets):
        own = {grouping_key_name(key): key for key in key_set}
        select_items = [f"{set_index} AS {quote_identifier(set_column)}"]
        group_ordinals: list[int] = []
        for union_position, union_key in enumerate(union_keys):
            name = grouping_key_name(union_key)
            key = own.get(name)
            if key is None:
                select_items.append(f"NULL AS {quote_identifier(name)}")
            else:
                select_item, _group_expression = render_grouping_key(key)
                select_items.append(select_item)
                # Ordinal references (1-based; position 1 is the set column)
                # avoid re-evaluating flag CASE expressions per clause.
                group_ordinals.append(union_position + 2)
        for aggregate in query.aggregates:
            select_items.append(render_aggregate(aggregate, native_var_std))
        sql = (
            f"SELECT {', '.join(select_items)} "
            f"FROM {quote_identifier(query.table)}"
        )
        if query.predicate is not None:
            sql += f" WHERE {render_expression(query.predicate, rowid_base)}"
        if group_ordinals:
            sql += " GROUP BY " + ", ".join(str(o) for o in group_ordinals)
        arms.append(sql)

    order = ", ".join(str(i + 1) for i in range(1 + len(union_keys)))
    return " UNION ALL ".join(arms) + f" ORDER BY {order}"


def render_grouping_sets_native(
    query: GroupingSetsQuery,
    native_var_std: bool = False,
    mask_column: str = "__seedb_grouping",
    rowid_base: int = 1,
) -> tuple[str, "list[GroupingKey]", dict[int, int]]:
    """One native ``GROUP BY GROUPING SETS`` statement (PostgreSQL/DuckDB).

    Native grouping sets emit NULL for every key absent from a row's set —
    indistinguishable from a genuine NULL *data* value in that key. The
    standard disambiguator is ``GROUPING(keys...)``: a bitmask whose bits
    are 0 where the key participates in the row's grouping criteria and 1
    where it does not (leftmost argument = most significant bit). Distinct
    sets are distinct key subsets, hence distinct masks.

    Returns ``(sql, union_keys, mask_to_set)``: the statement selects
    ``mask_column`` first, then every union key (in ``union_keys`` order),
    then the aggregates; ``mask_to_set`` maps an observed GROUPING bitmask
    back to the query's set index.
    """
    union_keys = union_grouping_keys(query)

    # The grouping expression of each union key, reused verbatim in the
    # SELECT list, the GROUPING() call, and the grouping sets (expression
    # identity is what GROUPING matches on).
    expressions = {}
    select_items = []
    for key in union_keys:
        select_item, group_expression = render_grouping_key(key)
        expressions[grouping_key_name(key)] = group_expression
        select_items.append(select_item)

    mask_to_set: dict[int, int] = {}
    bits = len(union_keys)
    set_clauses = []
    for set_index, key_set in enumerate(query.sets):
        members = {grouping_key_name(key) for key in key_set}
        mask = 0
        for position, key in enumerate(union_keys):
            if grouping_key_name(key) not in members:
                mask |= 1 << (bits - 1 - position)
        if mask in mask_to_set:
            raise QueryError(
                f"grouping sets {query.sets!r} are not distinct key subsets"
            )
        mask_to_set[mask] = set_index
        set_clauses.append(
            "("
            + ", ".join(
                expressions[grouping_key_name(key)] for key in key_set
            )
            + ")"
        )

    grouping_args = ", ".join(expressions[grouping_key_name(k)] for k in union_keys)
    head = [f"GROUPING({grouping_args}) AS {quote_identifier(mask_column)}"]
    head.extend(select_items)
    head.extend(
        render_aggregate(aggregate, native_var_std) for aggregate in query.aggregates
    )
    sql = f"SELECT {', '.join(head)} FROM {quote_identifier(query.table)}"
    if query.predicate is not None:
        sql += f" WHERE {render_expression(query.predicate, rowid_base)}"
    sql += " GROUP BY GROUPING SETS (" + ", ".join(set_clauses) + ")"
    order = ", ".join(str(i + 1) for i in range(1 + len(union_keys)))
    sql += f" ORDER BY {order}"
    return sql, union_keys, mask_to_set


def split_grouping_rows(
    rows: list, singles, union_positions: dict, set_index_of
) -> "list[list[tuple]]":
    """Split a combined grouping-sets result into per-set projected rows.

    Shared by every SQL backend that executes grouping sets as one
    statement (native or UNION ALL emulation). Each raw row is
    ``(set_tag, union_key_columns..., aggregates...)``;
    ``set_index_of(set_tag)`` names its grouping set (a GROUPING bitmask
    lookup for the native path, the ordinal itself for the emulation).
    The projection keeps, per set, only that set's own key columns — in
    its own key order — followed by every aggregate.
    """
    aggregate_base = 1 + len(union_positions)
    by_set: "list[list[tuple]]" = [[] for _ in singles]
    for row in rows:
        by_set[set_index_of(row[0])].append(row)
    projected: "list[list[tuple]]" = []
    for single, set_rows in zip(singles, by_set):
        take = [1 + union_positions[name] for name in single.key_names]
        take.extend(
            range(aggregate_base, aggregate_base + len(single.aggregates))
        )
        projected.append([tuple(row[i] for i in take) for row in set_rows])
    return projected


def render_row_select(query: RowSelectQuery) -> str:
    """``SELECT * FROM t [WHERE ...] [LIMIT n]`` for the analyst's query."""
    sql = f"SELECT * FROM {quote_identifier(query.table)}"
    if query.predicate is not None:
        sql += f" WHERE {render_expression(query.predicate)}"
    if query.limit is not None:
        sql += f" LIMIT {int(query.limit)}"
    return sql

