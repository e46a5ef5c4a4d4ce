"""Empirical distribution objects: exactness of quantile/Lorenz evaluation."""

import numpy as np
import pytest

from almostdom.empirical import (
    EmpiricalDistribution,
    PairedSample,
    Sample,
    build_empirical,
)
from almostdom.errors import DomainError, EmptySampleError, ZeroMeanError
from almostdom.rng import child_rng
from almostdom.simulation import DoublePareto


def brute_force_quantile(values, p):
    """Smallest observed value whose empirical CDF reaches p."""
    values = np.sort(values)
    n = values.size
    for x in values:
        if np.sum(values <= x) / n >= p:
            return x
    return values[-1]


class TestBuildEmpirical:
    def test_two_point(self):
        dist = build_empirical(Sample(np.array([3.0, 1.0])))
        np.testing.assert_array_equal(dist.sorted_values, [1.0, 3.0])
        assert dist.mean == 2.0
        assert dist.n == 2

    def test_singleton(self):
        dist = build_empirical(Sample(np.array([5.0])))
        assert dist.mean == 5.0

    def test_input_unmodified(self):
        raw = np.array([3.0, 1.0, 2.0])
        sample = Sample(raw.copy())
        build_empirical(sample)
        np.testing.assert_array_equal(sample.values, [3.0, 1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            EmpiricalDistribution(np.array([]))
        with pytest.raises(EmptySampleError):
            Sample(np.array([]))

    @pytest.mark.parametrize(
        "make",
        [EmpiricalDistribution, Sample, lambda v: PairedSample(v, np.ones(2))],
        ids=["empirical", "sample", "paired"],
    )
    def test_two_dimensional_raises(self, make):
        # one check for every sample class: the same error for the same fault
        with pytest.raises(DomainError, match="one-dimensional"):
            make(np.ones((2, 2)))

    def test_mean_matches_average(self):
        rng = child_rng(1, 0)
        values = rng.lognormal(size=500)
        dist = EmpiricalDistribution(values)
        assert abs(dist.mean - values.mean()) <= 1e-12 * abs(values.mean())

    def test_heavy_tail_mean_within_three_se(self):
        # population mean from the quantile integral at one million nodes
        dp = DoublePareto(3.0, 1.5)
        p = (np.arange(1_000_000) + 0.5) / 1_000_000
        q = dp.quantile(p)
        pop_mean = q.mean()
        pop_sd = np.sqrt((q**2).mean() - pop_mean**2)
        n = 10_000
        dist = EmpiricalDistribution(dp.sample(n, child_rng(2, 0)))
        assert abs(dist.mean - pop_mean) <= 3 * pop_sd / np.sqrt(n)


class TestQuantile:
    def test_two_point_median(self):
        dist = EmpiricalDistribution([1.0, 3.0])
        assert dist.quantile(0.5) == 1.0
        assert dist.quantile(0.51) == 3.0

    def test_matches_brute_force(self):
        values = np.array([2.0, 4.0, 6.0, 8.0])
        dist = EmpiricalDistribution(values)
        assert dist.quantile(0.75) == brute_force_quantile(values, 0.75) == 6.0
        rng = child_rng(3, 0)
        sample = rng.integers(0, 20, 9).astype(float)
        dist = EmpiricalDistribution(sample)
        for p in rng.random(25):
            assert dist.quantile(p) == brute_force_quantile(sample, p)

    def test_endpoints(self):
        dist = EmpiricalDistribution([-2.0, 5.0, 9.0])
        assert dist.quantile(0.0) == -2.0
        assert dist.quantile(1.0) == 9.0

    def test_out_of_range(self):
        dist = EmpiricalDistribution([1.0])
        with pytest.raises(DomainError):
            dist.quantile(1.5)

    def test_vectorized(self):
        dist = EmpiricalDistribution([1.0, 3.0])
        np.testing.assert_array_equal(dist.quantile(np.array([0.5, 0.51])), [1.0, 3.0])


class TestLorenz:
    def test_two_point_half(self):
        dist = EmpiricalDistribution([1.0, 3.0])
        assert dist.lorenz(0.5) == 0.25

    def test_full_share_is_one(self):
        rng = child_rng(4, 0)
        dist = EmpiricalDistribution(rng.exponential(size=77))
        assert abs(dist.lorenz(1.0) - 1.0) < 1e-12

    def test_equality_gives_diagonal(self):
        dist = EmpiricalDistribution(np.full(10, 4.2))
        for p in (0.0, 0.3, 0.77, 1.0):
            assert abs(dist.lorenz(p) - p) < 1e-12

    def test_zero_mean_raises(self):
        dist = EmpiricalDistribution(np.zeros(5))
        with pytest.raises(ZeroMeanError):
            dist.lorenz(0.5)

    def test_scale_equivariance(self):
        rng = child_rng(5, 0)
        values = rng.pareto(3.0, size=120) + 1.0
        grid = np.linspace(0, 1, 201)
        base = EmpiricalDistribution(values).lorenz(grid)
        for c in (0.01, 7.0, 1234.5):
            scaled = EmpiricalDistribution(c * values).lorenz(grid)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_segment_slope_is_order_statistic(self):
        # on ((k-1)/n, k/n) the derivative is the k-th order statistic / mean
        values = np.array([1.0, 2.0, 5.0, 11.0])
        dist = EmpiricalDistribution(values)
        n = values.size
        eps = 1e-6
        for k in range(1, n + 1):
            mid = (k - 0.5) / n
            slope = (dist.lorenz(mid + eps) - dist.lorenz(mid - eps)) / (2 * eps)
            assert abs(slope - values[k - 1] / dist.mean) < 1e-9 * values[k - 1]

    def test_quantile_integral_is_mean(self):
        rng = child_rng(6, 0)
        dist = EmpiricalDistribution(rng.gamma(2.0, size=333))
        assert abs(dist.cum_quantile(1.0) - dist.mean) <= 1e-12 * dist.mean

    def test_convex_nondecreasing(self):
        rng = child_rng(7, 0)
        dist = EmpiricalDistribution(rng.exponential(size=64))
        grid = np.linspace(0, 1, 129)
        lor = dist.lorenz(grid)
        diffs = np.diff(lor)
        assert np.all(diffs >= -1e-15)
        assert np.all(np.diff(diffs) >= -1e-12)


class TestCdf:
    def test_step_values(self):
        dist = EmpiricalDistribution([1.0, 2.0, 2.0, 5.0])
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(1.0) == 0.25
        assert dist.cdf(2.0) == 0.75
        assert dist.cdf(10.0) == 1.0


class TestPairedSample:
    def test_sizes(self):
        # bench/tracing.py counts the rows that load_csv returns through ``n``
        assert Sample([1.0, 2.0, 3.0]).n == 3
        assert PairedSample([1.0, 2.0], [3.0, 4.0]).n == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PairedSample(np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Sample([1.0, np.nan]),
            lambda: Sample(np.ones((2, 2))),
            lambda: PairedSample([1.0, np.inf], [1.0, 2.0]),
            lambda: PairedSample([1.0], [1.0, 2.0]),
            lambda: EmpiricalDistribution([1.0, np.nan]),
        ],
        ids=["nan-sample", "2d-sample", "inf-pair", "length", "nan-empirical"],
    )
    def test_bad_data_is_domain_error(self, build):
        with pytest.raises(DomainError):
            build()
