"""Integration: edge cases and injected failures across the full pipeline.

A production system's behaviour on hostile inputs is part of its spec:
empty selections, degenerate tables, unicode, all-NULL measures, dropped
tables mid-session, and malformed SQL must all fail loudly with library
errors (or succeed with well-defined semantics) — never crash with a raw
TypeError or produce NaN utilities.
"""

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.db.expressions import col
from repro.db.query import RowSelectQuery
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.util.errors import ReproError, SchemaError, SqlSyntaxError

NO_PRUNING = dict(
    prune_low_variance=False,
    prune_cardinality=False,
    prune_correlated=False,
)


def build_backend(table):
    backend = MemoryBackend()
    backend.register_table(table)
    return backend


class TestEmptySelections:
    def test_predicate_matching_nothing(self, sales_table):
        backend = build_backend(sales_table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        result = seedb.recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Nonexistent"), k=3
            )
        )
        # Empty target: distributions fall back to uniform; utilities must
        # be finite and the pipeline must not crash.
        assert len(result.recommendations) == 3
        for utility in result.utilities.values():
            assert np.isfinite(utility)

    def test_predicate_matching_everything(self, sales_table):
        backend = build_backend(sales_table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        result = seedb.recommend(
            RecommendationRequest(RowSelectQuery("sales", col("amount") > -1e12), k=3)
        )
        # Target == comparison -> all utilities ~ 0.
        for utility in result.utilities.values():
            assert utility == pytest.approx(0.0, abs=1e-9)


class TestDegenerateTables:
    def test_single_row_table(self):
        table = Table.from_columns(
            "tiny",
            {"k": ["only"], "v": [1.0]},
            roles={"k": AttributeRole.DIMENSION, "v": AttributeRole.MEASURE},
        )
        backend = build_backend(table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        result = seedb.recommend(
            RecommendationRequest(RowSelectQuery("tiny", col("v") > 0), k=2)
        )
        for utility in result.utilities.values():
            assert np.isfinite(utility)

    def test_all_nan_measure(self):
        table = Table.from_columns(
            "nulls",
            {
                "k": ["a", "b", "a", "b"],
                "v": [float("nan")] * 4,
            },
            roles={"k": AttributeRole.DIMENSION, "v": AttributeRole.MEASURE},
        )
        backend = build_backend(table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        result = seedb.recommend(
            RecommendationRequest(RowSelectQuery("nulls", col("k") == "a"), k=2)
        )
        for utility in result.utilities.values():
            assert np.isfinite(utility)  # NaN-sums become zero mass

    def test_unicode_dimension_values(self):
        table = Table.from_columns(
            "unicode",
            {
                "city": ["京都", "Zürich", "Montréal", "京都", "Zürich", "成都"],
                "note": ["x'y\"z"] * 6,
                "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            },
            roles={
                "city": AttributeRole.DIMENSION,
                "note": AttributeRole.DIMENSION,
                "v": AttributeRole.MEASURE,
            },
        )
        for backend_factory in (MemoryBackend, SqliteBackend):
            backend = backend_factory()
            backend.register_table(table)
            try:
                seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
                result = seedb.recommend(
                    RecommendationRequest(
                        RowSelectQuery("unicode", col("city") == "京都"), k=2
                    )
                )
                assert result.recommendations
            finally:
                if isinstance(backend, SqliteBackend):
                    backend.close()

    def test_no_measures_only_count_views(self):
        table = Table.from_columns(
            "dims_only",
            {"a": ["x", "y", "x"], "b": ["p", "p", "q"]},
            roles={"a": AttributeRole.DIMENSION, "b": AttributeRole.DIMENSION},
        )
        backend = build_backend(table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        result = seedb.recommend(
            RecommendationRequest(RowSelectQuery("dims_only", col("b") == "p"), k=2)
        )
        assert all(spec.func == "count" for spec in result.utilities)

    def test_no_usable_views_returns_empty(self):
        # Single dimension constrained by the predicate -> nothing to show.
        table = Table.from_columns(
            "one_dim",
            {"a": ["x", "y"], "v": [1.0, 2.0]},
            roles={"a": AttributeRole.DIMENSION, "v": AttributeRole.MEASURE},
        )
        backend = build_backend(table)
        seedb = SeeDB(backend, SeeDBConfig(**NO_PRUNING))
        result = seedb.recommend(
            RecommendationRequest(RowSelectQuery("one_dim", col("a") == "x"), k=3)
        )
        assert result.recommendations == []
        assert result.n_executed_views == 0


class TestInjectedFailures:
    def test_unknown_table_raises_library_error(self, memory_backend):
        seedb = SeeDB(memory_backend)
        with pytest.raises(ReproError):
            seedb.recommend(RecommendationRequest(RowSelectQuery("no_such_table"), k=1))

    def test_unknown_predicate_column(self, memory_backend):
        seedb = SeeDB(memory_backend)
        with pytest.raises(ReproError):
            seedb.recommend(
                RecommendationRequest(RowSelectQuery("sales", col("ghost") == 1), k=1)
            )

    def test_malformed_sql_raises_syntax_error(self, memory_backend):
        seedb = SeeDB(memory_backend)
        with pytest.raises(SqlSyntaxError):
            seedb.recommend(RecommendationRequest.from_sql("SELEKT * FROM sales", k=1))

    def test_dropped_table_mid_session(self, sales_table):
        backend = SqliteBackend()
        backend.register_table(sales_table)
        try:
            seedb = SeeDB(backend)
            seedb.recommend(
                RecommendationRequest(
                    RowSelectQuery("sales", col("product") == "Laserwave"), k=1
                )
            )
            backend.drop_table("sales")
            with pytest.raises(ReproError):
                seedb.recommend(
                    RecommendationRequest(
                        RowSelectQuery("sales", col("product") == "Laserwave"), k=1
                    )
                )
        finally:
            backend.close()

    def test_incomparable_predicate_type(self, memory_backend):
        seedb = SeeDB(memory_backend, SeeDBConfig(**NO_PRUNING))
        with pytest.raises(ReproError, match="compare"):
            seedb.recommend(
                RecommendationRequest(
                    RowSelectQuery("sales", col("amount") > "a string"), k=1
                )
            )
