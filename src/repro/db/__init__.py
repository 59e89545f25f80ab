"""In-memory column-store DBMS substrate.

SeeDB is "a layer on top of a traditional relational database system"
(paper §3.1). This package is that underlying system, built from scratch:
typed columns backed by numpy arrays, a predicate AST, one reducer per
aggregate, and an execution engine whose one group-by path is GROUPING
SETS over a single shared scan (a plain group-by is a one-set query),
with exact scan/row accounting so the paper's shared-computation claims
can be verified deterministically rather than only by wall-clock time.
"""

from repro.db.types import DataType, AttributeRole, infer_data_type
from repro.db.schema import ColumnSpec, Schema
from repro.db.table import Table
from repro.db.expressions import (
    Expression,
    ColumnRef,
    Literal,
    Comparison,
    In,
    Between,
    And,
    Or,
    Not,
    TruePredicate,
    col,
)
from repro.db.aggregates import Aggregate, AGGREGATE_FUNCTIONS
from repro.db.query import AggregateQuery, FlagColumn, RowSelectQuery
from repro.db.engine import Engine, ExecutionStats
from repro.db.catalog import Catalog
from repro.db.csvio import read_csv, write_csv

__all__ = [
    "DataType",
    "AttributeRole",
    "infer_data_type",
    "ColumnSpec",
    "Schema",
    "Table",
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "In",
    "Between",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "col",
    "Aggregate",
    "AGGREGATE_FUNCTIONS",
    "AggregateQuery",
    "FlagColumn",
    "RowSelectQuery",
    "Engine",
    "ExecutionStats",
    "Catalog",
    "read_csv",
    "write_csv",
]
