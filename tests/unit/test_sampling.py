"""Unit tests: samplers and sample-accuracy measures."""

import numpy as np
import pytest

from repro.db.table import Table
from repro.model.view import ViewSpec
from repro.sampling import (
    BernoulliSampler,
    ReservoirSampler,
    StratifiedSampler,
    kendall_tau,
    ranking_from_utilities,
    reservoir_indices,
    topk_precision,
    utility_errors,
)
from repro.util.errors import SamplingError


@pytest.fixture
def table():
    n = 2000
    return Table.from_columns(
        "t",
        {
            # Skewed dimension: one dominant group, one rare group.
            "k": ["big"] * 1900 + ["rare"] * 100,
            "v": [float(i) for i in range(n)],
        },
    )


class TestBernoulli:
    def test_fraction_respected_approximately(self, table):
        sample = BernoulliSampler(0.25).sample(table, seed=1)
        assert 350 <= sample.num_rows <= 650  # 4-sigma-ish band around 500

    def test_full_fraction_keeps_everything(self, table):
        sample = BernoulliSampler(1.0).sample(table, seed=1)
        assert sample.num_rows == table.num_rows

    def test_deterministic_given_seed(self, table):
        a = BernoulliSampler(0.3).sample(table, seed=7)
        b = BernoulliSampler(0.3).sample(table, seed=7)
        assert a.to_rows() == b.to_rows()

    def test_invalid_fraction(self):
        with pytest.raises(SamplingError):
            BernoulliSampler(0.0)
        with pytest.raises(SamplingError):
            BernoulliSampler(1.5)

    def test_sample_name_suffix(self, table):
        assert BernoulliSampler(0.5).sample(table, seed=0).name == "t_sample"

    def test_expected_rows(self):
        assert BernoulliSampler(0.1).expected_rows(1000) == 100


class TestReservoir:
    def test_exact_capacity(self, table):
        sample = ReservoirSampler(100).sample(table, seed=3)
        assert sample.num_rows == 100

    def test_small_table_passthrough(self, table):
        sample = ReservoirSampler(10**6).sample(table, seed=3)
        assert sample.num_rows == table.num_rows

    def test_streaming_algorithm_r(self):
        indices = reservoir_indices(range(1000), capacity=50, seed=0)
        assert len(indices) == 50
        assert len(set(indices)) == 50
        assert all(0 <= i < 1000 for i in indices)
        assert indices == sorted(indices)

    def test_streaming_short_stream(self):
        assert reservoir_indices(range(3), capacity=10, seed=0) == [0, 1, 2]

    def test_streaming_uniformity(self):
        # Each of 20 items should appear in a size-5 reservoir ~25% of runs.
        hits = np.zeros(20)
        for seed in range(400):
            for index in reservoir_indices(range(20), capacity=5, seed=seed):
                hits[index] += 1
        rates = hits / 400
        assert np.all(rates > 0.15) and np.all(rates < 0.35)

    def test_invalid_capacity(self):
        with pytest.raises(SamplingError):
            ReservoirSampler(0)
        with pytest.raises(SamplingError):
            reservoir_indices(range(5), capacity=0)


class TestStratified:
    def test_rare_group_guaranteed(self, table):
        # At 1% Bernoulli the rare group (100 rows) often vanishes; the
        # stratified floor keeps it.
        sample = StratifiedSampler("k", fraction=0.01, min_per_stratum=5).sample(
            table, seed=2
        )
        kept = [str(v) for v in sample.column("k")]
        assert kept.count("rare") >= 5

    def test_proportional_allocation(self, table):
        sample = StratifiedSampler("k", fraction=0.1).sample(table, seed=2)
        kept = [str(v) for v in sample.column("k")]
        assert 150 <= kept.count("big") <= 230

    def test_full_fraction(self, table):
        sample = StratifiedSampler("k", fraction=1.0).sample(table, seed=2)
        assert sample.num_rows == table.num_rows

    def test_empty_table(self):
        empty = Table.from_columns("e", {"k": ["x"], "v": [1.0]}).mask(
            np.array([False])
        )
        sample = StratifiedSampler("k", fraction=0.5).sample(empty, seed=0)
        assert sample.num_rows == 0

    def test_validation(self):
        with pytest.raises(SamplingError):
            StratifiedSampler("k", fraction=0.0)
        with pytest.raises(SamplingError):
            StratifiedSampler("k", fraction=0.5, min_per_stratum=-1)


def _specs(n):
    return [ViewSpec(f"d{i}", "m", "sum") for i in range(n)]


class TestAccuracyMeasures:
    def test_ranking_sorted_descending(self):
        specs = _specs(3)
        utilities = {specs[0]: 0.1, specs[1]: 0.9, specs[2]: 0.5}
        assert ranking_from_utilities(utilities) == [specs[1], specs[2], specs[0]]

    def test_ranking_deterministic_ties(self):
        specs = _specs(3)
        utilities = {spec: 0.5 for spec in specs}
        assert ranking_from_utilities(utilities) == sorted(specs)

    def test_topk_precision_perfect_and_disjoint(self):
        specs = _specs(4)
        truth = {specs[i]: 1.0 - i * 0.1 for i in range(4)}
        assert topk_precision(truth, truth, k=2) == 1.0
        reversed_utilities = {specs[i]: i * 0.1 for i in range(4)}
        assert topk_precision(truth, reversed_utilities, k=2) == 0.0

    def test_topk_k_validation(self):
        with pytest.raises(SamplingError):
            topk_precision({}, {}, k=0)

    def test_kendall_tau_perfect(self):
        specs = _specs(5)
        utilities = {specs[i]: float(i) for i in range(5)}
        assert kendall_tau(utilities, utilities) == pytest.approx(1.0)

    def test_kendall_tau_reversed(self):
        specs = _specs(5)
        truth = {specs[i]: float(i) for i in range(5)}
        estimate = {specs[i]: float(-i) for i in range(5)}
        assert kendall_tau(truth, estimate) == pytest.approx(-1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_kendall_tau_matches_scipy_tau_b(self, seed):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        specs = _specs(n)
        # Few distinct values, so both sides carry ties.
        truth = rng.integers(0, 6, n).astype(float)
        estimate = rng.integers(0, 6, n).astype(float)
        expected = stats.kendalltau(truth, estimate).statistic
        got = kendall_tau(dict(zip(specs, truth)), dict(zip(specs, estimate)))
        if np.isnan(expected):
            assert got == 1.0
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_kendall_tau_few_common_views(self):
        specs = _specs(1)
        assert kendall_tau({specs[0]: 1.0}, {specs[0]: 0.3}) == 1.0

    def test_utility_errors(self):
        specs = _specs(2)
        truth = {specs[0]: 0.5, specs[1]: 0.8}
        estimate = {specs[0]: 0.6, specs[1]: 0.8}
        errors = utility_errors(truth, estimate)
        assert errors["mean_abs_error"] == pytest.approx(0.05)
        assert errors["max_abs_error"] == pytest.approx(0.1)

    def test_utility_errors_no_overlap(self):
        assert utility_errors({_specs(1)[0]: 1.0}, {}) == {
            "mean_abs_error": 0.0,
            "max_abs_error": 0.0,
        }
