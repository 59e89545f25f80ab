"""SeeDB reproduction: automatic recommendation of query visualizations.

Reimplements the system of "SeeDB: Automatically Generating Query
Visualizations" (Vartak, Madden, Parameswaran, Polyzotis; PVLDB 7(13),
2014) as a complete Python library: an in-memory column-store DBMS, a
sqlite3 wrapper, and an optional DuckDB backend (native GROUPING SETS) as
substrates, deviation-based view scoring with pluggable
distance metrics, metadata-driven view-space pruning, a query optimizer
(target/comparison combining, multi-aggregate and multi-group-by sharing
with bin-packed rollups, sampling, parallelism), a visualization layer,
and a frontend with SQL/builder/template query input.

Quickstart::

    from repro import MemoryBackend, RecommendationRequest, SeeDB
    from repro.datasets import laserwave_sales_history

    backend = MemoryBackend()
    backend.register_table(laserwave_sales_history())
    result = SeeDB(backend).recommend(
        RecommendationRequest.from_sql(
            "SELECT * FROM sales WHERE product = 'Laserwave'", k=3
        )
    )
    print(result.summary())
"""

from repro.api import (
    ApiError,
    PartialResult,
    RecommendationRequest,
    Reference,
)
from repro.backends import (
    BackendCapabilities,
    DuckDbBackend,
    MemoryBackend,
    SqliteBackend,
    backend_from_uri,
)
from repro.core import (
    BasicFramework,
    GroupByCombining,
    RecommendationResult,
    SeeDB,
    SeeDBConfig,
    ViewSpec,
)
from repro.db import (
    AttributeRole,
    DataType,
    RowSelectQuery,
    Table,
    col,
    read_csv,
)
from repro.engine import ExecutionContext, ExecutionEngine, SessionCache
from repro.frontend import AnalystSession, QueryBuilder
from repro.metrics import available_metrics, get_metric

__version__ = "1.0.0"

__all__ = [
    "ApiError",
    "PartialResult",
    "RecommendationRequest",
    "Reference",
    "BackendCapabilities",
    "DuckDbBackend",
    "MemoryBackend",
    "SqliteBackend",
    "backend_from_uri",
    "BasicFramework",
    "GroupByCombining",
    "RecommendationResult",
    "SeeDB",
    "SeeDBConfig",
    "ViewSpec",
    "AttributeRole",
    "DataType",
    "RowSelectQuery",
    "Table",
    "col",
    "read_csv",
    "ExecutionEngine",
    "ExecutionContext",
    "SessionCache",
    "AnalystSession",
    "QueryBuilder",
    "available_metrics",
    "get_metric",
    "__version__",
]
