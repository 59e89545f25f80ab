"""Wire codec for queries and predicate expressions (all schema versions).

Serializes :class:`~repro.db.query.RowSelectQuery` targets and their
predicate ASTs to plain-JSON dictionaries and back. The ``target`` /
predicate encoding has not changed since wire version 1 — versions 2 to 4
added or removed request options, not query syntax — so one codec serves
every accepted ``schema_version``. The structured form is
the canonical wire representation (lossless and versionable); ``from``
decoding additionally accepts a raw SQL string anywhere a query is
expected, parsed through :mod:`repro.sqlparser` with syntax failures
re-raised as structured :class:`~repro.api.errors.ApiError`\\ s.

Every decoder threads a dotted ``field`` path so validation failures point
at the offending element (``"target.predicate.operands[1].op"``).
"""

from __future__ import annotations

from datetime import date, datetime
from typing import Any

from repro.api.errors import ApiError, SqlApiError
from repro.db.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    In,
    Literal,
    Not,
    Or,
    TruePredicate,
)
from repro.db.query import RowSelectQuery
from repro.util.errors import QueryError, SqlSyntaxError

# -- literals ---------------------------------------------------------------


def literal_to_wire(value: Any) -> Any:
    """A predicate literal as a JSON-safe value.

    Dates are wrapped in ``{"$date": "YYYY-MM-DD"}`` so decoding does not
    have to guess whether a string means a date.
    """
    if hasattr(value, "item"):  # numpy scalars
        value = value.item()
    if isinstance(value, date) and not isinstance(value, datetime):
        return {"$date": value.isoformat()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ApiError(
        f"cannot serialize literal of type {type(value).__name__}",
        code="invalid_value",
    )


def literal_from_wire(value: Any, field: str) -> Any:
    if isinstance(value, dict):
        raw = value.get("$date")
        if raw is None or len(value) != 1:
            raise ApiError(
                "literal objects must be {'$date': 'YYYY-MM-DD'}",
                code="invalid_value",
                field=field,
            )
        try:
            return datetime.strptime(raw, "%Y-%m-%d").date()
        except (TypeError, ValueError):
            raise ApiError(
                f"invalid $date literal {raw!r}",
                code="invalid_value",
                field=field,
            ) from None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ApiError(
        f"literal must be a scalar or $date object, got {type(value).__name__}",
        code="invalid_value",
        field=field,
    )


# -- predicate expressions --------------------------------------------------


def expression_to_wire(expression: Expression) -> dict:
    """A predicate AST as nested JSON objects (``{"op": ..., ...}``)."""
    if isinstance(expression, TruePredicate):
        return {"op": "true"}
    if isinstance(expression, Comparison):
        return {
            "op": expression.op,
            "column": expression.column.name,
            "value": literal_to_wire(expression.literal.value),
        }
    if isinstance(expression, In):
        return {
            "op": "in",
            "column": expression.column.name,
            "values": [literal_to_wire(v) for v in expression.values],
        }
    if isinstance(expression, Between):
        return {
            "op": "between",
            "column": expression.column.name,
            "low": literal_to_wire(expression.low),
            "high": literal_to_wire(expression.high),
        }
    if isinstance(expression, And):
        return {
            "op": "and",
            "operands": [expression_to_wire(op) for op in expression.operands],
        }
    if isinstance(expression, Or):
        return {
            "op": "or",
            "operands": [expression_to_wire(op) for op in expression.operands],
        }
    if isinstance(expression, Not):
        return {"op": "not", "operand": expression_to_wire(expression.operand)}
    raise ApiError(
        f"cannot serialize expression type {type(expression).__name__}",
        code="invalid_value",
    )


_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def expression_from_wire(payload: Any, field: str) -> Expression:
    """Decode one predicate node, raising :class:`ApiError` with the dotted
    ``field`` path on any malformed element."""
    if not isinstance(payload, dict):
        raise ApiError(
            f"predicate node must be an object, got {type(payload).__name__}",
            code="invalid_value",
            field=field,
        )
    op = payload.get("op")
    if op is None:
        raise ApiError(
            "predicate node is missing 'op'", code="missing_field",
            field=f"{field}.op",
        )
    if op == "true":
        _require_keys(payload, {"op"}, field)
        return TruePredicate()
    if op in _COMPARISON_OPS:
        _require_keys(payload, {"op", "column", "value"}, field)
        return Comparison(
            op,
            ColumnRef(_column(payload, field)),
            Literal(_required_literal(payload, "value", field)),
        )
    if op == "in":
        _require_keys(payload, {"op", "column", "values"}, field)
        values = payload.get("values")
        if not isinstance(values, list):
            raise ApiError(
                "'in' needs a list of values", code="invalid_value",
                field=f"{field}.values",
            )
        return In(
            ColumnRef(_column(payload, field)),
            tuple(
                literal_from_wire(v, f"{field}.values[{i}]")
                for i, v in enumerate(values)
            ),
        )
    if op == "between":
        _require_keys(payload, {"op", "column", "low", "high"}, field)
        return Between(
            ColumnRef(_column(payload, field)),
            _required_literal(payload, "low", field),
            _required_literal(payload, "high", field),
        )
    if op in ("and", "or"):
        _require_keys(payload, {"op", "operands"}, field)
        operands = payload.get("operands")
        if not isinstance(operands, list) or len(operands) < 2:
            raise ApiError(
                f"'{op}' needs a list of at least two operands",
                code="invalid_value",
                field=f"{field}.operands",
            )
        decoded = tuple(
            expression_from_wire(item, f"{field}.operands[{i}]")
            for i, item in enumerate(operands)
        )
        return And(decoded) if op == "and" else Or(decoded)
    if op == "not":
        _require_keys(payload, {"op", "operand"}, field)
        return Not(expression_from_wire(payload.get("operand"), f"{field}.operand"))
    raise ApiError(
        f"unknown predicate op {op!r}", code="invalid_value",
        field=f"{field}.op",
    )


def _required_literal(payload: dict, key: str, field: str) -> Any:
    """A literal operand that must be *present* — an absent key is a
    missing_field, not a NULL literal (a typo'd request would otherwise
    silently compare against NULL and select nothing)."""
    if key not in payload:
        raise ApiError(
            f"predicate node needs {key!r}",
            code="missing_field",
            field=f"{field}.{key}",
        )
    return literal_from_wire(payload[key], f"{field}.{key}")


def _column(payload: dict, field: str) -> str:
    name = payload.get("column")
    if not isinstance(name, str) or not name:
        raise ApiError(
            "predicate node needs a non-empty 'column' string",
            code="invalid_value" if name is not None else "missing_field",
            field=f"{field}.column",
        )
    return name


def _require_keys(payload: dict, allowed: set, field: str) -> None:
    extra = sorted(set(payload) - allowed)
    if extra:
        raise ApiError(
            f"unknown key(s) {extra} in predicate node",
            code="unknown_field",
            field=f"{field}.{extra[0]}",
        )


# -- row-selection queries --------------------------------------------------


def query_to_wire(query: RowSelectQuery) -> dict:
    """The structured wire form of a target/reference query."""
    payload: dict = {"table": query.table}
    if query.predicate is not None:
        payload["predicate"] = expression_to_wire(query.predicate)
    if query.limit is not None:
        payload["limit"] = query.limit
    return payload


def query_from_wire(payload: Any, field: str) -> RowSelectQuery:
    """Decode a query from its structured form or a raw SQL string."""
    if isinstance(payload, str):
        return parse_sql_query(payload, field)
    if not isinstance(payload, dict):
        raise ApiError(
            f"{field} must be an object or a SQL string, "
            f"got {type(payload).__name__}",
            code="invalid_value",
            field=field,
        )
    extra = sorted(set(payload) - {"table", "predicate", "limit", "sql"})
    if extra:
        raise ApiError(
            f"unknown key(s) {extra} in {field}",
            code="unknown_field",
            field=f"{field}.{extra[0]}",
        )
    if "sql" in payload:
        if len(payload) != 1:
            raise ApiError(
                f"{field} must give either 'sql' or structured fields, not both",
                code="invalid_request",
                field=field,
            )
        return parse_sql_query(payload["sql"], f"{field}.sql")
    table = payload.get("table")
    if not isinstance(table, str) or not table:
        raise ApiError(
            f"{field} needs a non-empty 'table' string",
            code="invalid_value" if table is not None else "missing_field",
            field=f"{field}.table",
        )
    predicate = None
    if payload.get("predicate") is not None:
        predicate = expression_from_wire(
            payload["predicate"], f"{field}.predicate"
        )
    limit = payload.get("limit")
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
        raise ApiError(
            f"limit must be an integer, got {limit!r}",
            code="invalid_value",
            field=f"{field}.limit",
        )
    try:
        return RowSelectQuery(table=table, predicate=predicate, limit=limit)
    except QueryError as exc:
        raise ApiError(
            str(exc), code="invalid_value", field=field
        ) from exc


def parse_sql_query(sql: Any, field: str) -> RowSelectQuery:
    """Parse SQL text into a row-selection query, with structured errors.

    Syntax failures become ``code="sql_syntax"``; text that parses to a
    shape the request API cannot accept (an aggregate query) becomes
    ``code="unsupported_sql"``.
    """
    if not isinstance(sql, str):
        raise ApiError(
            f"{field} must be a SQL string, got {type(sql).__name__}",
            code="invalid_value",
            field=field,
        )
    from repro.sqlparser import parse_query

    try:
        parsed = parse_query(sql)
    except SqlSyntaxError as exc:
        raise SqlApiError(
            str(exc), code="sql_syntax", field=field, position=exc.position
        ) from exc
    if not isinstance(parsed, RowSelectQuery):
        raise SqlApiError(
            "expected a row-selection query (SELECT * FROM ...); "
            "got an aggregate query — the request API derives view queries "
            "itself",
            code="unsupported_sql",
            field=field,
        )
    return parsed
