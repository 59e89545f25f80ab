"""Edge-case unit tests for paths not covered elsewhere."""

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.db.aggregates import Aggregate
from repro.db.expressions import col
from repro.db.groupby import Factorization, aggregate_by_codes
from repro.db.query import FlagColumn, GroupingSetsQuery, RowSelectQuery
from repro.db.table import Table
from repro.util.tabulate import format_table
from repro.viz.spec import ChartType, single_series_spec
from repro.viz.svg import render_svg


class TestGroupingSetsEncoding:
    """One grouping-sets query filters once and encodes each key once."""

    @staticmethod
    def _engine(table):
        from repro.db.catalog import Catalog
        from repro.db.engine import Engine

        catalog = Catalog()
        catalog.register(table)
        return Engine(catalog)

    def test_empty_key_set_single_group(self, sales_table):
        (result,) = self._engine(sales_table).execute_grouping_sets(
            GroupingSetsQuery("sales", ((),), (Aggregate("count"),))
        )
        assert result.num_rows == 1
        assert result.schema.names == ("count(*)",)
        assert result.column("count(*)").tolist() == [12.0]

    def test_shared_key_encoded_once(self, sales_table, monkeypatch):
        import repro.db.engine as engine_module

        column_codes: list[str] = []
        flag_codes: list[int] = []
        real_codes, real_compact = Table.codes, engine_module.compact_codes

        def codes(table, name):
            column_codes.append(name)
            return real_codes(table, name)

        def compact(*args):
            flag_codes.append(1)
            return real_compact(*args)

        monkeypatch.setattr(Table, "codes", codes)
        monkeypatch.setattr(engine_module, "compact_codes", compact)
        flag = FlagColumn("is_laserwave", col("product") == "Laserwave")
        results = self._engine(sales_table).execute_grouping_sets(
            GroupingSetsQuery(
                "sales",
                ((flag, "store"), (flag, "month"), ("store",)),
                (Aggregate("sum", "amount"),),
            )
        )
        assert [r.num_rows for r in results] == [8, 8, 4]
        # Each key once; "product" once more, read by the flag's predicate,
        # which compares over the dictionary of that string column.
        assert sorted(column_codes) == ["month", "product", "store"]
        assert flag_codes == [1]


class TestSvgEdgeCases:
    def test_constant_series_has_valid_range(self):
        spec = single_series_spec(
            "flat", "x", "y", ["a", "b"], [5.0, 5.0], ChartType.LINE
        )
        svg = render_svg(spec)
        assert "<polyline" in svg
        assert "nan" not in svg.lower()

    def test_all_zero_series(self):
        spec = single_series_spec("zeros", "x", "y", ["a"], [0.0])
        svg = render_svg(spec)
        assert "<rect" in svg

    def test_single_category(self):
        spec = single_series_spec("one", "x", "y", ["only"], [3.5])
        assert "only" in render_svg(spec)


class TestTabulateFormats:
    def test_float_format_parameter(self):
        text = format_table([[3.14159]], headers=["pi"], float_format=".2f")
        assert "3.14" in text and "3.1416" not in text

    def test_mixed_column_not_right_aligned(self):
        # A column with both str and numbers is treated as text.
        text = format_table([["x"], [1]], headers=["col"])
        assert text.splitlines()[2].startswith("x")


class TestAggregateEdges:
    def test_min_max_on_int_column(self, sales_table):
        from repro.db.catalog import Catalog
        from repro.db.engine import Engine
        from repro.db.query import AggregateQuery

        catalog = Catalog()
        catalog.register(sales_table)
        engine = Engine(catalog)
        result = engine.execute(
            AggregateQuery(
                "sales", ("product",),
                (Aggregate("min", "profit"), Aggregate("max", "profit")),
            )
        )
        assert isinstance(result, Table)
        values = np.asarray(result.column("min(profit)"))
        assert np.isfinite(values).all()

    def test_var_single_value_group_zero(self):
        fact = Factorization(np.array([0]), 1, {})
        result = aggregate_by_codes(fact, {"v": np.array([7.0])}, (Aggregate("var", "v"),))
        assert result["var(v)"][0] == pytest.approx(0.0)


class TestIncrementalWithHellinger:
    def test_full_run(self, memory_backend):
        from repro.core.recommender import SeeDB

        result = SeeDB(memory_backend).recommend(
            RecommendationRequest(
                RowSelectQuery("sales", col("product") == "Laserwave"),
                k=1,
                metric="hellinger",
                dimensions=("store", "month"),
                measures=("amount",),
                strategy="incremental",
                options={"n_phases": 2, "aggregate_functions": ["sum"]},
            )
        )
        assert len(result.recommendations) == 1
        assert all(np.isfinite(u) for u in result.utilities.values())


class TestMultiViewCountOnly:
    def test_count_views_without_measures(self):
        from repro.backends.memory import MemoryBackend
        from repro.core.config import SeeDBConfig
        from repro.core.recommender import SeeDB
        from repro.db.types import AttributeRole

        table = Table.from_columns(
            "d3",
            {"a": ["x", "y"] * 6, "b": ["p", "p", "q"] * 4, "c": ["u"] * 12},
            roles={
                "a": AttributeRole.DIMENSION,
                "b": AttributeRole.DIMENSION,
                "c": AttributeRole.DIMENSION,
            },
        )
        backend = MemoryBackend()
        backend.register_table(table)
        top = SeeDB(backend, SeeDBConfig(n_dimensions=2)).recommend(
            RecommendationRequest(
                RowSelectQuery("d3", col("a") == "x"),
                k=2,
                options={"aggregate_functions": []},
            ),
        ).recommendations
        assert top
        assert all(v.spec.func == "count" for v in top)


class TestNullDimensionLabel:
    @pytest.mark.parametrize("combine", [True, False])
    def test_null_group_is_none_on_every_plan_and_backend(self, combine):
        """One-key (separate) and multi-key (flag) group-bys label a NULL
        dimension value alike, and like SQL does."""
        from repro.backends.memory import MemoryBackend
        from repro.backends.sqlite import SqliteBackend
        from repro.core.config import SeeDBConfig
        from repro.core.recommender import SeeDB
        from repro.db.types import AttributeRole

        table = Table.from_columns(
            "t",
            {
                "d": ["a", None, "b", "c", None, "a", "b", "c"],
                "p": ["x", "x", "x", "x", "y", "y", "y", "y"],
                "m": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            },
            roles={
                "d": AttributeRole.DIMENSION,
                "p": AttributeRole.DIMENSION,
                "m": AttributeRole.MEASURE,
            },
        )
        request = RecommendationRequest(RowSelectQuery("t", col("p") == "x"), k=1)
        for backend_type in (MemoryBackend, SqliteBackend):
            backend = backend_type()
            backend.register_table(table)
            with SeeDB(
                backend, SeeDBConfig(combine_target_comparison=combine)
            ) as seedb:
                (top,) = seedb.recommend(request).recommendations
            backend.close()
            assert top.spec.dimension == "d"
            assert top.groups == [None, "a", "b", "c"], backend_type.__name__
