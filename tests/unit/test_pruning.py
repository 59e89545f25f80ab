"""Unit tests: view-space pruning rules and the pipeline."""

import numpy as np
import pytest

from repro.datasets.synthetic import add_constant_column, add_correlated_copy
from repro.db.table import Table
from repro.db.types import AttributeRole
from repro.metadata import AccessLog, MetadataCollector
from repro.model.view import ViewSpec
from repro.pruning import (
    AccessFrequencyPruner,
    CardinalityPruner,
    CorrelationPruner,
    PruningPipeline,
    VariancePruner,
    cluster_dimensions,
)
from repro.util.errors import PruningError


@pytest.fixture
def table(sales_table):
    extended = add_constant_column(sales_table, "country", "USA")
    return add_correlated_copy(extended, "store", "store_code")


@pytest.fixture
def metadata(table):
    return MetadataCollector().collect(table)


def views_for(*dimensions):
    return [ViewSpec(d, "amount", "sum") for d in dimensions]


class TestVariancePruner:
    def test_constant_dimension_pruned(self, metadata):
        kept, report = VariancePruner().apply(
            views_for("store", "country"), metadata
        )
        assert [v.dimension for v in kept] == ["store"]
        assert report.n_pruned == 1
        assert "constant" in report.pruned[0][1]

    def test_entropy_threshold(self, metadata):
        # A ridiculous threshold prunes everything except nothing is above
        # 10 bits on a 12-row table.
        kept, report = VariancePruner(min_entropy_bits=10.0).apply(
            views_for("store", "product"), metadata
        )
        assert kept == []
        assert report.n_pruned == 2

    def test_invalid_thresholds(self):
        with pytest.raises(PruningError):
            VariancePruner(min_entropy_bits=-1)
        with pytest.raises(PruningError):
            VariancePruner(min_numeric_variance=-0.1)


class TestCardinalityPruner:
    def test_upper_bound(self, metadata):
        kept, report = CardinalityPruner(max_groups=3).apply(
            views_for("store", "product"), metadata
        )
        # store has 4 groups (> 3), product has 2.
        assert [v.dimension for v in kept] == ["product"]
        assert "unvisualizable" in report.pruned[0][1]

    def test_lower_bound(self, metadata):
        kept, _report = CardinalityPruner(min_groups=3, max_groups=None).apply(
            views_for("store", "product", "country"), metadata
        )
        assert [v.dimension for v in kept] == ["store"]

    def test_no_upper_bound(self, metadata):
        kept, _ = CardinalityPruner(max_groups=None).apply(
            views_for("store"), metadata
        )
        assert len(kept) == 1

    def test_invalid_bounds(self):
        with pytest.raises(PruningError):
            CardinalityPruner(min_groups=0)
        with pytest.raises(PruningError):
            CardinalityPruner(min_groups=5, max_groups=2)


class TestCorrelationPruner:
    def test_clusters_perfect_copy(self, metadata):
        clusters = cluster_dimensions(
            ["store", "store_code", "product"], metadata, threshold=0.9
        )
        assert ["store", "store_code"] in clusters
        assert ["product"] in clusters

    @pytest.mark.parametrize("seed", range(20))
    def test_clusters_are_the_connected_components(self, seed):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(seed)
        names = [f"d{i}" for i in rng.permutation(int(rng.integers(1, 12)))]
        strength = rng.random((len(names), len(names)))
        index = {name: i for i, name in enumerate(names)}

        class Associations:
            def association(self, a, b):
                return strength[min(index[a], index[b]), max(index[a], index[b])]

        graph = nx.Graph()
        graph.add_nodes_from(names)
        graph.add_edges_from(
            (a, b) for a in names for b in names
            if a < b and Associations().association(a, b) >= 0.8
        )
        expected = sorted(sorted(c) for c in nx.connected_components(graph))
        assert cluster_dimensions(names, Associations(), threshold=0.8) == expected

    def test_one_representative_per_cluster(self, metadata):
        views = views_for("store", "store_code", "product")
        kept, report = CorrelationPruner(threshold=0.9).apply(views, metadata)
        kept_dimensions = {v.dimension for v in kept}
        assert "product" in kept_dimensions
        assert len(kept_dimensions & {"store", "store_code"}) == 1
        assert report.n_pruned == 1
        assert "correlated" in report.pruned[0][1]

    def test_access_frequency_breaks_ties(self, table):
        log = AccessLog()
        for _ in range(5):
            log.record_columns(table.name, {"store_code"})
        metadata = MetadataCollector(access_log=log).collect(table)
        views = views_for("store", "store_code")
        kept, _report = CorrelationPruner(threshold=0.9).apply(views, metadata)
        assert [v.dimension for v in kept] == ["store_code"]

    def test_threshold_validation(self):
        with pytest.raises(PruningError):
            CorrelationPruner(threshold=0.0)
        with pytest.raises(PruningError):
            CorrelationPruner(threshold=1.5)

    def test_high_threshold_keeps_everything(self, metadata):
        views = views_for("store", "product")
        kept, _ = CorrelationPruner(threshold=1.0).apply(views, metadata)
        assert len(kept) == 2


class TestAccessFrequencyPruner:
    def test_cold_start_keeps_all(self, metadata):
        pruner = AccessFrequencyPruner(min_frequency=0.9, min_history=10)
        kept, _ = pruner.apply(views_for("store", "product"), metadata)
        assert len(kept) == 2

    def test_prunes_rarely_accessed(self, table):
        log = AccessLog()
        for _ in range(20):
            log.record_columns(table.name, {"store", "amount"})
        log.record_columns(table.name, {"product"})
        metadata = MetadataCollector(access_log=log).collect(table)
        pruner = AccessFrequencyPruner(min_frequency=0.5, min_history=5)
        kept, report = pruner.apply(views_for("store", "product"), metadata)
        assert [v.dimension for v in kept] == ["store"]
        assert "frequency" in report.pruned[0][1]

    def test_measure_frequency_also_checked(self, table):
        log = AccessLog()
        for _ in range(20):
            log.record_columns(table.name, {"store"})
        metadata = MetadataCollector(access_log=log).collect(table)
        pruner = AccessFrequencyPruner(min_frequency=0.5, min_history=5)
        kept, _ = pruner.apply([ViewSpec("store", "amount", "sum")], metadata)
        assert kept == []  # amount never accessed

    def test_validation(self):
        with pytest.raises(PruningError):
            AccessFrequencyPruner(min_frequency=1.5)
        with pytest.raises(PruningError):
            AccessFrequencyPruner(min_history=-1)


class TestPipeline:
    def test_sequential_reports(self, metadata):
        pipeline = PruningPipeline(
            [VariancePruner(), CardinalityPruner(max_groups=3)]
        )
        views = views_for("store", "product", "country")
        kept, reports = pipeline.apply(views, metadata)
        assert [r.rule for r in reports] == ["variance", "cardinality"]
        assert [v.dimension for v in kept] == ["product"]
        assert PruningPipeline.total_pruned(reports) == 2

    def test_empty_pipeline_keeps_all(self, metadata):
        kept, reports = PruningPipeline([]).apply(views_for("store"), metadata)
        assert len(kept) == 1 and reports == []

    def test_count_views_prunable(self, metadata):
        # count(*) views carry measure=None; pruners must handle that.
        views = [ViewSpec("country", None, "count")]
        kept, _ = VariancePruner().apply(views, metadata)
        assert kept == []
