"""Unit tests: Hellinger distance, significance testing, log persistence."""

import numpy as np
import pytest

from repro.metadata.access_log import AccessLog
from repro.metrics import HellingerDistance, get_metric, view_significance
from repro.metrics.significance import SignificanceResult
from repro.model.view import ScoredView, ViewSpec
from repro.util.errors import MetricError


class TestHellinger:
    def test_registered(self):
        assert isinstance(get_metric("hellinger"), HellingerDistance)

    def test_known_values(self):
        metric = HellingerDistance()
        uniform = np.full(4, 0.25)
        assert metric.distance(uniform, uniform) == pytest.approx(0.0)
        disjoint_p = np.array([1.0, 0.0])
        disjoint_q = np.array([0.0, 1.0])
        assert metric.distance(disjoint_p, disjoint_q) == pytest.approx(1.0)

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(5)
        metric = HellingerDistance()
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            d = metric.distance(p, q)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(metric.distance(q, p))

    def test_relation_to_bhattacharyya(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.9, 0.1])
        coefficient = np.sum(np.sqrt(p * q))
        expected = np.sqrt(1 - coefficient)
        assert HellingerDistance().distance(p, q) == pytest.approx(expected)

    def test_usable_by_incremental(self, sales_table):
        from repro.api import RecommendationRequest

        RecommendationRequest.from_sql(
            "SELECT * FROM sales", metric="hellinger", strategy="incremental"
        ).resolve()  # no raise: hellinger is [0, 1]-bounded


def make_view(target_values, comparison_distribution):
    target = np.asarray(target_values, dtype=float)
    comparison = np.asarray(comparison_distribution, dtype=float)
    total = target.sum()
    return ScoredView(
        spec=ViewSpec("d", None, "count"),
        utility=0.5,
        groups=[f"g{i}" for i in range(len(target))],
        target_distribution=target / total if total else target,
        comparison_distribution=comparison,
        target_values=target,
        comparison_values=comparison * 100,
    )


class TestChiSquareSurvival:
    def test_matches_scipy_over_a_grid(self):
        """dof 1-200, x from 1e-6 to 1e3: the near-1 head, both sides of the
        series/continued-fraction switch at x = dof + 2, and tails down to
        ~1e-218, all within 1e-12 relative of scipy."""
        stats = pytest.importorskip("scipy.stats")
        from repro.metrics.significance import chi2_sf

        xs = np.concatenate([np.geomspace(1e-6, 1e3, 97), np.arange(1.0, 202.0, 3.0)])
        for dof in range(1, 201):
            expected = stats.chi2.sf(xs, dof)
            got = np.array([chi2_sf(float(x), dof) for x in xs])
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=dof)

    def test_non_positive_statistic(self):
        from repro.metrics.significance import chi2_sf

        assert chi2_sf(0.0, 3) == 1.0


class TestSignificance:
    def test_matching_distribution_not_significant(self):
        view = make_view([25, 25, 25, 25], [0.25, 0.25, 0.25, 0.25])
        result = view_significance(view)
        assert result.p_value > 0.9
        assert not result.significant()

    def test_strong_deviation_significant(self):
        view = make_view([97, 1, 1, 1], [0.25, 0.25, 0.25, 0.25])
        result = view_significance(view)
        assert result.p_value < 1e-6
        assert result.significant()
        assert result.chi2 > 100

    def test_small_counts_not_significant(self):
        # The same *proportional* deviation with tiny counts is noise.
        view = make_view([3, 1], [0.5, 0.5])
        assert not view_significance(view).significant()

    def test_n_rows_override(self):
        view = make_view([0.6, 0.4], [0.5, 0.5])  # proportions, not counts
        weak = view_significance(view, n_target_rows=20)
        strong = view_significance(view, n_target_rows=20_000)
        assert not weak.significant()
        assert strong.significant()

    def test_sparse_cells_flagged(self):
        view = make_view([9, 1], [0.9, 0.1])
        result = view_significance(view)
        assert result.sparse_cells >= 1

    def test_dof(self):
        view = make_view([10, 10, 10], [1 / 3] * 3)
        assert view_significance(view).dof == 2

    def test_validation(self):
        view = make_view([1.0], [1.0])
        empty = ScoredView(
            spec=ViewSpec("d", None, "count"),
            utility=0.0,
            groups=[],
            target_distribution=np.empty(0),
            comparison_distribution=np.empty(0),
        )
        with pytest.raises(MetricError, match="empty"):
            view_significance(empty)
        negative = make_view([5.0, 5.0], [0.5, 0.5])
        object.__setattr__  # (ScoredView is mutable; adjust directly)
        negative.target_values = np.array([-1.0, 2.0])
        with pytest.raises(MetricError, match="non-negative"):
            view_significance(negative)

    def test_result_dataclass(self):
        result = SignificanceResult(chi2=1.0, p_value=0.3, dof=1, sparse_cells=0)
        assert not result.significant(alpha=0.05)
        assert result.significant(alpha=0.5)


class TestAccessLogPersistence:
    def test_roundtrip(self, tmp_path):
        log = AccessLog(decay=0.9)
        log.record_columns("sales", {"store", "amount"})
        log.record_columns("sales", {"store"})
        log.record_columns("orders", {"region"})
        path = tmp_path / "log.json"
        log.save(path)
        loaded = AccessLog.load(path)
        assert loaded.decay == 0.9
        assert loaded.queries_recorded == 3
        assert loaded.count("sales", "store") == pytest.approx(
            log.count("sales", "store")
        )
        assert loaded.most_accessed("orders") == log.most_accessed("orders")

    def test_loaded_log_keeps_learning(self, tmp_path):
        log = AccessLog()
        log.record_columns("t", {"a"})
        path = tmp_path / "log.json"
        log.save(path)
        loaded = AccessLog.load(path)
        loaded.record_columns("t", {"a"})
        assert loaded.count("t", "a") == 2.0
