"""Unit tests: the experiment harness (sweeps, measurement, reports)."""

import csv

import pytest

from repro.api import RecommendationRequest
from repro.core.config import SeeDBConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.accuracy import (
    metric_quality_on_planted,
    precision_at_k,
    sampling_accuracy_sweep,
)
from repro.experiments.figures import figures_2_3_utilities, verify_table_1
from repro.experiments.harness import Sweep, measure, rows_to_table, sweep_rows
from repro.experiments.latency import (
    OPTIMIZATION_GRID,
    latency_vs_optimizations,
    measure_recommendation,
)
from repro.experiments.report import render_markdown_table, write_rows_csv


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(
        SyntheticConfig(n_rows=3_000, n_dimensions=3, n_measures=1,
                        cardinality=6),
        seed=9,
    )


class TestHarness:
    def test_measure_reports_best_and_mean(self):
        calls = []
        timing = measure(lambda: calls.append(1), repeats=4)
        assert len(calls) == 4
        assert timing["best_seconds"] <= timing["mean_seconds"]

    def test_measure_validates_repeats(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)

    def test_sweep_rows(self):
        rows = sweep_rows("x", [1, 2], lambda x: {"double": 2 * x})
        assert rows == [{"x": 1, "double": 2}, {"x": 2, "double": 4}]

    def test_sweep_table_rendering(self):
        text = Sweep("x", [1], lambda x: {"y": x}).table()
        assert "x" in text and "y" in text

    def test_rows_to_table_union_of_keys(self):
        text = rows_to_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_rows_to_table_empty(self):
        assert rows_to_table([]) == "(no rows)"


class TestReport:
    def test_markdown_table(self):
        text = render_markdown_table([{"metric": "js", "value": 0.5}])
        lines = text.splitlines()
        assert lines[0] == "| metric | value |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| js | 0.5 |"

    def test_markdown_empty(self):
        assert render_markdown_table([]) == "(no rows)"

    def test_write_rows_csv(self, tmp_path):
        path = write_rows_csv(
            [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}], tmp_path / "sub" / "r.csv"
        )
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


class TestLatencyRunners:
    def test_measure_recommendation_fields(self, tiny_dataset):
        row = measure_recommendation(
            tiny_dataset.table, tiny_dataset.predicate, SeeDBConfig(), repeats=1
        )
        assert row["latency_s"] > 0
        assert row["queries"] > 0
        assert row["views_executed"] > 0
        assert "scans" in row

    def test_optimization_grid_shape(self):
        labels = [label for label, _overrides in OPTIMIZATION_GRID]
        assert labels[0] == "basic (none)"
        assert len(labels) == 5

    def test_latency_vs_optimizations_rows(self, tiny_dataset):
        rows = latency_vs_optimizations(
            tiny_dataset.table, tiny_dataset.predicate, repeats=1
        )
        assert len(rows) == len(OPTIMIZATION_GRID)
        basic, flag = rows[0], rows[1]
        assert flag["queries"] * 2 == basic["queries"]


class TestAccuracyRunners:
    def test_precision_at_k_bounds(self, tiny_dataset):
        from repro.backends.memory import MemoryBackend
        from repro.core.recommender import SeeDB
        from repro.db.query import RowSelectQuery

        backend = MemoryBackend()
        backend.register_table(tiny_dataset.table)
        result = SeeDB(backend, SeeDBConfig(prune_correlated=False)).recommend(
            RecommendationRequest(
                RowSelectQuery(tiny_dataset.table.name, tiny_dataset.predicate), k=3
            )
        )
        assert 0.0 <= precision_at_k(result, tiny_dataset) <= 1.0

    def test_metric_quality_rows(self, tiny_dataset):
        rows = metric_quality_on_planted(tiny_dataset, k=3, metrics=["js", "emd"])
        assert [row["metric"] for row in rows] == ["js", "emd"]
        for row in rows:
            assert "top_view" in row

    def test_sampling_sweep_starts_with_exact(self, tiny_dataset):
        rows = sampling_accuracy_sweep(tiny_dataset, fractions=[0.5], k=3)
        assert rows[0]["fraction"] == 1.0
        assert rows[0]["topk_precision"] == 1.0
        assert len(rows) == 2


class TestFigures:
    def test_verify_table_1_structure(self):
        result = verify_table_1(n_rows=2_000)
        assert set(result) == {"computed", "expected", "max_abs_error"}
        assert len(result["computed"]) == 4

    def test_figures_2_3_subset_of_metrics(self):
        rows = figures_2_3_utilities(metrics=["js"])
        assert len(rows) == 1
        assert rows[0]["a_over_b"] > 1
