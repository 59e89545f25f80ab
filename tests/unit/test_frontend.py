"""Unit tests: query builder, templates, analyst session, and CLI."""

import sys

import numpy as np
import pytest

from repro.api import RecommendationRequest
from repro.db.expressions import And, Between, Comparison, In, col
from repro.db.query import RowSelectQuery
from repro.frontend import AnalystSession, QueryBuilder, available_templates, build_template
from repro.frontend.cli import main as cli_main
from repro.util.errors import ConfigError, QueryError, SchemaError


class TestQueryBuilder:
    def test_no_conditions(self):
        assert QueryBuilder("t").build() == RowSelectQuery("t", None)

    def test_single_condition(self):
        query = QueryBuilder("t").where("a", "=", 1).build()
        assert isinstance(query.predicate, Comparison)

    def test_multiple_conditions_anded(self):
        query = (
            QueryBuilder("t")
            .where("a", "=", 1)
            .where_in("b", ["x", "y"])
            .where_between("c", 0, 9)
            .build()
        )
        assert isinstance(query.predicate, And)
        kinds = [type(op) for op in query.predicate.operands]
        assert kinds == [Comparison, In, Between]

    def test_schema_validation(self, sales_table):
        builder = QueryBuilder("sales", sales_table.schema)
        with pytest.raises(SchemaError):
            builder.where("no_such_column", "=", 1)

    def test_clear(self):
        builder = QueryBuilder("t").where("a", "=", 1)
        assert builder.n_conditions == 1
        builder.clear()
        assert builder.build().predicate is None

    def test_empty_table_name_rejected(self):
        with pytest.raises(QueryError):
            QueryBuilder("")

    def test_builder_query_equals_fluent_predicate(self, sales_table):
        built = QueryBuilder("sales").where("product", "=", "Laserwave").build()
        fluent = RowSelectQuery("sales", col("product") == "Laserwave")
        mask_a = built.predicate.evaluate(sales_table)
        mask_b = fluent.predicate.evaluate(sales_table)
        assert (mask_a == mask_b).all()


class TestTemplates:
    def test_registry(self):
        names = available_templates()
        assert "outliers" in names and "top_category" in names

    def test_unknown_template(self, sales_table):
        with pytest.raises(ConfigError, match="available"):
            build_template("nope", sales_table)

    def test_outliers_high(self, sales_table):
        query = build_template("outliers", sales_table, column="amount", z=1.0)
        mask = query.predicate.evaluate(sales_table)
        values = sales_table.column("amount")[mask]
        assert len(values) > 0
        assert values.min() > sales_table.column("amount").mean()

    def test_outliers_both_sides(self, sales_table):
        query = build_template(
            "outliers", sales_table, column="amount", side="both", z=0.5
        )
        assert query.predicate.evaluate(sales_table).sum() > 0

    def test_outliers_requires_numeric(self, sales_table):
        with pytest.raises(QueryError, match="numeric"):
            build_template("outliers", sales_table, column="store")

    def test_outliers_side_validation(self, sales_table):
        with pytest.raises(QueryError):
            build_template("outliers", sales_table, column="amount", side="middle")

    def test_top_category(self, sales_table):
        query = build_template("top_category", sales_table, column="product")
        mask = query.predicate.evaluate(sales_table)
        assert mask.sum() == 8  # "Other" is most frequent

    def test_equals(self, sales_table):
        query = build_template("equals", sales_table, column="product", value="Other")
        assert query.predicate.evaluate(sales_table).sum() == 8

    def test_recent_window_requires_dates(self, sales_table):
        with pytest.raises(QueryError, match="not a date"):
            build_template("recent_window", sales_table, date_column="store")

    def test_recent_window(self):
        from datetime import date

        from repro.db.table import Table

        table = Table.from_columns(
            "events",
            {
                "day": [date(2024, 1, 1), date(2024, 5, 1), date(2024, 5, 20)],
                "v": [1.0, 2.0, 3.0],
            },
        )
        query = build_template("recent_window", table, date_column="day", days=30)
        assert query.predicate.evaluate(table).sum() == 2


class TestAnalystSession:
    def test_issue_and_history(self, memory_backend):
        session = AnalystSession(memory_backend)
        result = session.issue("SELECT * FROM sales WHERE product = 'Laserwave'", k=3)
        assert len(session.history) == 1
        assert session.last_result is result
        assert len(result.recommendations) <= 3

    def test_requires_history_for_last(self, memory_backend):
        session = AnalystSession(memory_backend)
        with pytest.raises(QueryError, match="no query"):
            _ = session.last_query

    def test_view_metadata(self, memory_backend):
        session = AnalystSession(memory_backend)
        result = session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        metadata = session.view_metadata(result.recommendations[0])
        assert metadata.n_groups > 0
        assert metadata.utility == result.recommendations[0].utility
        assert metadata.max_change_delta >= 0

    def test_show_renders_ascii(self, memory_backend):
        session = AnalystSession(memory_backend)
        result = session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        text = session.show(result.recommendations[0])
        assert result.recommendations[0].spec.label in text

    def test_drill_down_conjoins_predicate(self, memory_backend):
        session = AnalystSession(memory_backend)
        result = session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        view = result.recommendations[0]
        group = view.groups[0]
        drilled = session.drill_down(view, group, k=2)
        assert len(session.history) == 2
        assert "AND" in session.last_query.predicate.__class__.__name__.upper() or (
            session.last_query.predicate is not None
        )
        assert drilled.k == 2

    def test_drill_down_unknown_group(self, memory_backend):
        session = AnalystSession(memory_backend)
        result = session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        with pytest.raises(QueryError, match="not in view"):
            session.drill_down(result.recommendations[0], "not-a-group")


class TestCli:
    def test_dataset_run(self, capsys):
        exit_code = cli_main(
            [
                "--dataset",
                "laserwave",
                "--sql",
                "SELECT * FROM sales WHERE product = 'Laserwave'",
                "--k",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "SeeDB recommendations" in captured.out

    def test_csv_run_with_charts_and_export(self, tmp_path, capsys, sales_table):
        from repro.db.csvio import write_csv

        csv_path = tmp_path / "sales.csv"
        write_csv(sales_table, csv_path)
        export_dir = tmp_path / "charts"
        exit_code = cli_main(
            [
                "--csv",
                str(csv_path),
                "--sql",
                "SELECT * FROM sales WHERE product = 'Laserwave'",
                "--charts",
                "--show-bad-views",
                "--export",
                str(export_dir),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "lowest-utility" in captured.out
        assert export_dir.exists() and list(export_dir.iterdir())

    def test_sqlite_backend_flag(self, capsys):
        exit_code = cli_main(
            [
                "--dataset",
                "laserwave",
                "--backend",
                "sqlite",
                "--sql",
                "SELECT * FROM sales WHERE product = 'Laserwave'",
            ]
        )
        assert exit_code == 0

    def test_error_exit_code(self, capsys):
        exit_code = cli_main(
            ["--dataset", "laserwave", "--sql", "SELECT * FROM wrong_table"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestCliTemplatesAndHtml:
    def test_template_query(self, capsys):
        exit_code = cli_main(
            [
                "--dataset", "medical",
                "--template", "outliers",
                "--template-arg", "column=los_days",
                "--template-arg", "z=2.0",
                "--k", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "SeeDB recommendations" in captured.out

    def test_template_bad_arg_format(self, capsys):
        exit_code = cli_main(
            ["--dataset", "medical", "--template", "outliers",
             "--template-arg", "no_equals_sign"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "KEY=VALUE" in captured.err

    def test_template_unknown_param(self, capsys):
        exit_code = cli_main(
            ["--dataset", "medical", "--template", "outliers",
             "--template-arg", "nonsense=1"]
        )
        assert exit_code == 2

    def test_html_report_flag(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        exit_code = cli_main(
            [
                "--dataset", "laserwave",
                "--sql", "SELECT * FROM sales WHERE product = 'Laserwave'",
                "--html", str(out),
            ]
        )
        assert exit_code == 0
        assert out.exists()
        assert "<svg" in out.read_text()

    def test_sql_and_template_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli_main(
                ["--dataset", "laserwave", "--sql", "SELECT * FROM sales",
                 "--template", "outliers"]
            )


class TestViewMetadataSignificance:
    def test_p_value_present_for_count_views(self, memory_backend):
        session = AnalystSession(memory_backend)
        # No measures: every candidate, so every recommendation, is a count view.
        result = session.issue(
            RecommendationRequest.from_sql(
                "SELECT * FROM sales WHERE product = 'Laserwave'", measures=()
            )
        )
        count_view = result.recommendations[0]
        assert count_view.spec.func == "count"
        metadata = session.view_metadata(count_view)
        assert metadata.p_value is not None
        assert 0.0 <= metadata.p_value <= 1.0

    def test_p_value_none_for_negative_measures(self, memory_backend):
        import numpy as np

        from repro.model.view import ScoredView, ViewSpec

        session = AnalystSession(memory_backend)
        session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        view = ScoredView(
            spec=ViewSpec("store", "profit", "sum"),
            utility=0.1,
            groups=["a", "b"],
            target_distribution=np.array([0.5, 0.5]),
            comparison_distribution=np.array([0.5, 0.5]),
            target_values=np.array([-5.0, 5.0]),
            comparison_values=np.array([1.0, 1.0]),
        )
        assert session.view_metadata(view).p_value is None

    def test_p_value_without_scipy(self, memory_backend, monkeypatch):
        # The chi-square p-value needs no scipy.
        monkeypatch.setitem(sys.modules, "scipy", None)
        session = AnalystSession(memory_backend)
        result = session.issue(
            RecommendationRequest.from_sql(
                "SELECT * FROM sales WHERE product = 'Laserwave'", measures=()
            )
        )
        p_value = session.view_metadata(result.recommendations[0]).p_value
        assert isinstance(p_value, float) and 0.0 <= p_value <= 1.0


class TestSessionRollUp:
    def test_roll_up_returns_to_previous_query(self, memory_backend):
        session = AnalystSession(memory_backend)
        first = session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        view = first.recommendations[0]
        session.drill_down(view, view.groups[0])
        rolled = session.roll_up()
        assert session.last_query.predicate is not None
        # Back to the original predicate: same recommendations as `first`.
        assert [v.spec for v in rolled.recommendations] == [
            v.spec for v in first.recommendations
        ]

    def test_roll_up_requires_history(self, memory_backend):
        session = AnalystSession(memory_backend)
        with pytest.raises(QueryError, match="roll up"):
            session.roll_up()
        session.issue("SELECT * FROM sales WHERE product = 'Laserwave'")
        with pytest.raises(QueryError, match="roll up"):
            session.roll_up()
