"""Unit tests: view specs, space enumeration, processing, top-k, config."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import BASIC_FRAMEWORK, SeeDBConfig
from repro.core.space import enumerate_views, view_space_size
from repro.core.topk import top_k_views
from repro.core.view_processor import ViewProcessor
from repro.db.types import AttributeRole
from repro.metrics.normalize import NormalizationPolicy
from repro.metrics.registry import get_metric
from repro.model.view import RawViewData, ScoredView, ViewSpec
from repro.optimizer.plan import GroupByCombining
from repro.util.errors import ConfigError, QueryError, SchemaError


class TestViewSpec:
    def test_label(self):
        assert ViewSpec("store", "amount", "sum").label == "sum(amount) by store"
        assert ViewSpec("store", None, "count").label == "count(*) by store"

    def test_only_count_may_omit_measure(self):
        with pytest.raises(QueryError):
            ViewSpec("store", None, "sum")

    def test_queries(self):
        from repro.db.expressions import col

        spec = ViewSpec("store", "amount", "sum")
        target = spec.target_query("sales", col("p") == 1)
        comparison = spec.comparison_query("sales")
        assert target.predicate is not None
        assert comparison.predicate is None
        assert target.group_by == ("store",)

    def test_validate_against_schema(self, sales_table):
        ViewSpec("store", "amount", "sum").validate_against(sales_table.schema)
        with pytest.raises(SchemaError):
            ViewSpec("amount", "store", "sum").validate_against(sales_table.schema)

    def test_ordering_deterministic(self):
        views = [ViewSpec("b", "m", "sum"), ViewSpec("a", "m", "sum")]
        assert sorted(views)[0].dimension == "a"


class TestSpaceEnumeration:
    def test_cross_product(self, sales_table):
        views = enumerate_views(sales_table.schema, functions=("sum", "avg"))
        # 3 dims x 2 measures x 2 funcs + 3 count views
        assert len(views) == 15
        assert view_space_size(3, 2, 2, include_count=True) == 15

    def test_no_count_views(self, sales_table):
        views = enumerate_views(
            sales_table.schema, functions=("sum",), include_count=False
        )
        assert len(views) == 6
        assert all(v.func == "sum" for v in views)

    def test_restricted_dimensions(self, sales_table):
        views = enumerate_views(
            sales_table.schema, functions=("sum",), dimensions=["store"],
            include_count=False,
        )
        assert {v.dimension for v in views} == {"store"}

    def test_unknown_restriction_rejected(self, sales_table):
        with pytest.raises(SchemaError):
            enumerate_views(sales_table.schema, dimensions=["nope"])

    def test_empty_function_set_rejected(self, sales_table):
        with pytest.raises(ConfigError):
            enumerate_views(sales_table.schema, functions=(), include_count=False)

    def test_quadratic_growth(self):
        # Fixed total attributes n split evenly: |views| ~ (n/2)^2 * f.
        sizes = [
            view_space_size(n // 2, n // 2, 2, include_count=False)
            for n in (10, 20, 40)
        ]
        assert sizes == [50, 200, 800]  # 4x per doubling = quadratic


class TestViewProcessor:
    def make_raw(self, target, comparison, keys=None):
        spec = ViewSpec("d", "m", "sum")
        keys = keys if keys is not None else [f"g{i}" for i in range(len(target))]
        return RawViewData(
            spec=spec,
            target_keys=keys,
            target_values=np.asarray(target, dtype=float),
            comparison_keys=keys,
            comparison_values=np.asarray(comparison, dtype=float),
        )

    def test_identical_distributions_zero_utility(self):
        processor = ViewProcessor(get_metric("js"))
        scored = processor.score(self.make_raw([1, 2, 3], [2, 4, 6]))
        assert scored.utility == pytest.approx(0.0, abs=1e-9)

    def test_deviating_distribution_positive_utility(self):
        processor = ViewProcessor(get_metric("js"))
        scored = processor.score(self.make_raw([10, 0, 0], [1, 1, 1]))
        assert scored.utility > 0.5

    def test_misaligned_keys_are_unioned(self):
        spec = ViewSpec("d", "m", "sum")
        raw = RawViewData(
            spec=spec,
            target_keys=["a"],
            target_values=np.array([1.0]),
            comparison_keys=["a", "b"],
            comparison_values=np.array([1.0, 1.0]),
        )
        scored = ViewProcessor(get_metric("js")).score(raw)
        assert scored.groups == ["a", "b"]
        assert scored.target_distribution[1] == 0.0

    def test_empty_view_zero_utility(self):
        raw = self.make_raw([], [], keys=[])
        scored = ViewProcessor(get_metric("js")).score(raw)
        assert scored.utility == 0.0 and scored.groups == []

    def test_negative_values_shift_policy(self):
        processor = ViewProcessor(
            get_metric("js"), NormalizationPolicy.SHIFT
        )
        scored = processor.score(self.make_raw([-5, 5], [1, 1]))
        assert np.isfinite(scored.utility)

    def test_max_deviation_group(self):
        processor = ViewProcessor(get_metric("js"))
        scored = processor.score(self.make_raw([10, 0, 0], [0, 10, 0]))
        assert scored.max_deviation_group in ("g0", "g1")

    def test_score_all_mapping_and_iterable(self):
        processor = ViewProcessor(get_metric("js"))
        raw = self.make_raw([1, 2], [1, 2])
        assert len(processor.score_all([raw])) == 1
        assert len(processor.score_all({raw.spec: raw})) == 1


class TestTopK:
    def make_scored(self, label, utility):
        return ScoredView(
            spec=ViewSpec(label, "m", "sum"),
            utility=utility,
            groups=["g"],
            target_distribution=np.array([1.0]),
            comparison_distribution=np.array([1.0]),
        )

    def test_selects_largest(self):
        scored = [self.make_scored(f"d{i}", i / 10) for i in range(10)]
        top = top_k_views(scored, 3)
        assert [v.utility for v in top] == [0.9, 0.8, 0.7]

    def test_ties_break_lexicographically(self):
        scored = [self.make_scored(d, 0.5) for d in ("zebra", "apple", "mango")]
        top = top_k_views(scored, 2)
        assert [v.spec.dimension for v in top] == ["apple", "mango"]

    def test_k_larger_than_pool(self):
        scored = [self.make_scored("a", 0.1)]
        assert len(top_k_views(scored, 10)) == 1

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            top_k_views([], 0)


class TestSeeDBConfig:
    def test_defaults_valid(self):
        config = SeeDBConfig()
        assert config.metric == "js"
        assert config.planner_config().combine_target_comparison

    def test_unknown_metric_fails_fast(self):
        with pytest.raises(Exception):
            SeeDBConfig(metric="nope")

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            SeeDBConfig(k=0)
        with pytest.raises(ConfigError):
            SeeDBConfig(sample_fraction=1.5)
        with pytest.raises(ConfigError):
            SeeDBConfig(n_workers=0)

    def test_pruning_pipeline_respects_toggles(self):
        config = SeeDBConfig(
            prune_low_variance=False,
            prune_cardinality=False,
            prune_correlated=False,
            prune_rare_access=True,
        )
        rules = [rule.name for rule in config.pruning_pipeline().rules]
        assert rules == ["access_frequency"]

    def test_with_overrides_revalidates(self):
        config = SeeDBConfig()
        with pytest.raises(ConfigError):
            config.with_overrides(k=-1)
        assert config.with_overrides(k=9).k == 9

    @pytest.mark.parametrize(
        "name, value", [("batch_scoring", False), ("binpack_exact_threshold", 5)]
    )
    def test_removed_knobs_are_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            SeeDBConfig(**{name: value})

    def test_planner_config_mirrors_the_planner_fields(self):
        """Every planner knob is a SeeDBConfig field forwarded as is."""
        config = SeeDBConfig(memory_budget_cells=4_000, max_dims_per_query=3)
        planner = config.planner_config()
        for field in dataclasses.fields(planner):
            assert getattr(planner, field.name) == getattr(config, field.name)

    def test_basic_framework_preset(self):
        assert not BASIC_FRAMEWORK.combine_target_comparison
        assert BASIC_FRAMEWORK.groupby_combining is GroupByCombining.NONE
        assert not BASIC_FRAMEWORK.pruning_pipeline().rules
