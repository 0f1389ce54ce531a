"""Tests for repro.core.majority_rule: the two-bin specialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.majority_rule import (
    MajorityRule,
    _binomial_pmf,
    exact_two_bin_transition,
    two_bin_step_distribution,
)
from repro.core.median_rule import MedianRule


class TestMajorityRule:
    def test_equivalent_to_median_on_two_values(self, rng):
        values = (rng.random(200) < 0.4).astype(np.int64)
        samples = rng.integers(0, 200, size=(200, 2))
        a = MedianRule().apply_vectorized(values, samples, rng)
        b = MajorityRule().apply_vectorized(values, samples, rng)
        assert np.array_equal(a, b)

    def test_equivalent_with_arbitrary_two_values(self, rng):
        values = np.where(rng.random(150) < 0.5, 17, 42).astype(np.int64)
        samples = rng.integers(0, 150, size=(150, 2))
        a = MedianRule().apply_vectorized(values, samples, rng)
        b = MajorityRule().apply_vectorized(values, samples, rng)
        assert np.array_equal(a, b)

    def test_strict_rejects_three_values(self, rng):
        values = np.array([0, 1, 2, 0], dtype=np.int64)
        samples = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            MajorityRule(strict=True).apply_vectorized(values, samples, rng)

    def test_non_strict_accepts_three_values(self, rng):
        values = np.array([0, 1, 2, 0], dtype=np.int64)
        samples = np.zeros((4, 2), dtype=np.int64)
        out = MajorityRule(strict=False).apply_vectorized(values, samples, rng)
        assert out.shape == (4,)

    def test_apply_single_majority(self, rng):
        rule = MajorityRule()
        assert rule.apply_single(0, [1, 1], rng) == 1
        assert rule.apply_single(0, [0, 1], rng) == 0
        assert rule.apply_single(1, [0, 0], rng) == 0
        assert rule.apply_single(1, [1, 1], rng) == 1

    def test_apply_single_wrong_arity(self, rng):
        with pytest.raises(ValueError):
            MajorityRule().apply_single(0, [1], rng)

    def test_apply_single_three_distinct_falls_back_to_median(self, rng):
        assert MajorityRule(strict=False).apply_single(5, [1, 9], rng) == 5


class TestExactTwoBinTransition:
    def test_balanced_probabilities(self):
        p_leave, p_join = exact_two_bin_transition(100, 50)
        assert p_leave == pytest.approx(0.25)
        assert p_join == pytest.approx(0.25)

    def test_empty_minority(self):
        p_leave, p_join = exact_two_bin_transition(100, 0)
        assert p_leave == pytest.approx(1.0)
        assert p_join == pytest.approx(0.0)

    def test_full_minority(self):
        p_leave, p_join = exact_two_bin_transition(100, 100)
        assert p_leave == pytest.approx(0.0)
        assert p_join == pytest.approx(1.0)

    def test_matches_lemma12_parameterization(self):
        # Lemma 12 writes the stay probability of a minority ball as
        # 3/4 - delta - delta^2 where delta = Delta/n and minority = n/2 - Delta.
        n, minority = 1000, 300
        delta = (n / 2 - minority) / n
        p_leave, p_join = exact_two_bin_transition(n, minority)
        assert 1.0 - p_leave == pytest.approx(3 / 4 - delta - delta**2)
        assert p_join == pytest.approx(1 / 4 - delta + delta**2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exact_two_bin_transition(0, 0)
        with pytest.raises(ValueError):
            exact_two_bin_transition(10, 11)


class TestTwoBinStepDistribution:
    def test_is_probability_vector(self):
        dist = two_bin_step_distribution(50, 20)
        assert dist.shape == (51,)
        assert np.all(dist >= 0)
        assert dist.sum() == pytest.approx(1.0)

    def test_mean_matches_expectation(self):
        n, minority = 60, 25
        dist = two_bin_step_distribution(n, minority)
        p_leave, p_join = exact_two_bin_transition(n, minority)
        expected = minority * (1 - p_leave) + (n - minority) * p_join
        assert float(dist @ np.arange(n + 1)) == pytest.approx(expected, rel=1e-9)

    def test_absorbing_at_zero(self):
        dist = two_bin_step_distribution(40, 0)
        assert dist[0] == pytest.approx(1.0)

    def test_absorbing_at_n(self):
        dist = two_bin_step_distribution(40, 40)
        assert dist[40] == pytest.approx(1.0)

    def test_matches_scipy_binomial_convolution(self):
        binom = pytest.importorskip("scipy.stats").binom
        for n in (1, 2, 3, 7, 16, 50, 101, 256, 400):
            for minority in range(n + 1):
                p_leave, p_join = exact_two_bin_transition(n, minority)
                stay = binom.pmf(np.arange(minority + 1), minority, 1.0 - p_leave)
                join = binom.pmf(np.arange(n - minority + 1), n - minority, p_join)
                expected = np.convolve(stay, join)
                dist = two_bin_step_distribution(n, minority)
                np.testing.assert_allclose(dist, expected, rtol=0, atol=1e-12)
                assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_binomial_pmf_matches_scipy(self):
        binom = pytest.importorskip("scipy.stats").binom
        for trials in (0, 1, 5, 64, 399, 400):
            for p in (0.0, 1e-6, 0.25, 0.5, 0.9, 1.0 - 1e-9, 1.0):
                pmf = _binomial_pmf(trials, p)
                expected = binom.pmf(np.arange(trials + 1), trials, p)
                np.testing.assert_allclose(pmf, expected, rtol=0, atol=1e-12)

    def test_binomial_pmf_degenerate_edges_are_point_masses(self):
        assert _binomial_pmf(0, 0.3).tolist() == [1.0]
        assert _binomial_pmf(10, 0.0).tolist() == [1.0] + [0.0] * 10
        assert _binomial_pmf(10, 1.0).tolist() == [0.0] * 10 + [1.0]

    def test_matches_monte_carlo(self):
        # empirical next-minority distribution from simulation vs exact pmf mean/var
        rng = np.random.default_rng(3)
        n, minority, samples = 100, 30, 4000
        values = np.zeros((samples, n), dtype=np.int64)
        values[:, minority:] = 1
        contacts = rng.integers(0, n, size=(samples, n, 2))
        vj = np.take_along_axis(values, contacts[:, :, 0], axis=1)
        vk = np.take_along_axis(values, contacts[:, :, 1], axis=1)
        new_values = np.maximum(np.minimum(values, vj),
                                np.minimum(np.maximum(values, vj), vk))
        next_minority = (new_values == 0).sum(axis=1)
        dist = two_bin_step_distribution(n, minority)
        exact_mean = float(dist @ np.arange(n + 1))
        exact_var = float(dist @ (np.arange(n + 1) ** 2)) - exact_mean ** 2
        assert next_minority.mean() == pytest.approx(exact_mean, rel=0.05)
        assert next_minority.var() == pytest.approx(exact_var, rel=0.25)
