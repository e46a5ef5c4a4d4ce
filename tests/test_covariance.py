"""Covariance kernels: brute-force equality, PSD, and studentization curves."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almostdom import covariance
from almostdom.calculus import GridSpec, iterated_cumsum
from almostdom.coefficients import Direction, DominanceFamily, Family
from almostdom.covariance import std_curve_for
from almostdom.empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from almostdom.errors import NumericOverflowError, SchemeMismatchError
from almostdom.rng import child_rng
from almostdom.simulation import DoublePareto

import reference
from reference import CovKernel, isd_kernel, sd_kernel, std_curve

IND = SamplingScheme.INDEPENDENT
MP = SamplingScheme.MATCHED


def make_data(seed, n1=60, n2=45):
    rng = child_rng(seed, 0)
    v1 = rng.exponential(size=n1) + 0.1
    v2 = rng.gamma(2.0, size=n2) + 0.1
    return EmpiricalDistribution(v1), EmpiricalDistribution(v2)


def make_pairs(seed, n=50):
    rng = child_rng(seed, 1)
    x1 = rng.exponential(size=n) + 0.1
    x2 = 0.5 * x1 + rng.gamma(2.0, size=n)  # dependent coordinates
    return PairedSample(x1, x2)


def lorenz_transform(dist, values, nodes):
    lor = dist.lorenz(nodes)
    quant = dist.quantile(nodes)
    return (lor[:, None] * values[None, :] - np.minimum(quant[:, None], values)) / dist.mean


def min_transform(dist, values, nodes):
    return np.minimum(dist.quantile(nodes)[:, None], values[None, :])


def lorenz_variance(d1, d2, pairs, scheme, spec):
    """The diagonal of the Lorenz kernel: the squared Lorenz 1 studentization."""
    return std_curve_for(DominanceFamily.lorenz(1), d1, d2, pairs, scheme, spec).values ** 2


class TestLorenzKernel:
    """The Lorenz kernel's diagonal from rank-bin sums, and the dense kernel."""

    def test_constant_samples_vanish(self):
        d = EmpiricalDistribution(np.full(20, 3.0))
        assert np.max(lorenz_variance(d, d, None, IND, GridSpec(50))) < 1e-14

    def test_matches_brute_force_independent(self):
        d1, d2 = make_data(20)
        spec = GridSpec(16)
        nodes = spec.nodes()
        share1 = d1.n / (d1.n + d2.n)
        expected = (1 - share1) * np.cov(
            lorenz_transform(d1, d1.sorted_values, nodes)
        ) + share1 * np.cov(lorenz_transform(d2, d2.sorted_values, nodes))
        variance = lorenz_variance(d1, d2, None, IND, spec)
        np.testing.assert_allclose(variance, np.diagonal(expected), atol=1e-12)

    def test_matches_brute_force_matched(self):
        pairs = make_pairs(21)
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        spec = GridSpec(16)
        nodes = spec.nodes()
        combined = np.sqrt(0.5) * lorenz_transform(d2, pairs.x2, nodes) - np.sqrt(
            0.5
        ) * lorenz_transform(d1, pairs.x1, nodes)
        variance = lorenz_variance(d1, d2, pairs, MP, spec)
        np.testing.assert_allclose(variance, np.diagonal(np.cov(combined)), atol=1e-12)

    def test_symmetry_and_psd(self):
        d1, d2 = make_data(22, 80, 70)
        kernel = reference.lorenz_kernel(d1, d2, None, IND, GridSpec(64))
        matrix = kernel.matrix
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)
        rng = child_rng(22, 5)
        scale = 1e-6 * np.max(np.abs(matrix))
        for _ in range(50):
            w = rng.normal(size=matrix.shape[0])
            assert w @ matrix @ w >= -scale * w @ w

    def test_diagonal_tracks_population_variance(self):
        # tame tails: the plug-in diagonal approaches the analytic variance
        dp = DoublePareto(6.0, 2.0)
        n = 40_000
        rng = child_rng(23, 0)
        d = EmpiricalDistribution(dp.sample(n, rng))
        spec = GridSpec(21)
        k = 10  # node exactly at 0.5
        assert spec.nodes()[k] == pytest.approx(0.5)
        variance = lorenz_variance(d, d, None, IND, spec)
        mc_rng = child_rng(23, 1)
        x = dp.sample(500_000, mc_rng)
        quant = dp.quantile(0.5)
        lor = dp.cum_quantile(0.5) / dp.mean()
        transform = (lor * x - np.minimum(quant, x)) / dp.mean()
        assert variance[k] == pytest.approx(transform.var(), rel=0.05)

    def test_scheme_mismatch(self):
        d1, d2 = make_data(24, 30, 30)
        pairs = make_pairs(24, 30)
        with pytest.raises(SchemeMismatchError):
            lorenz_variance(d1, d2, None, MP, GridSpec(8))
        with pytest.raises(SchemeMismatchError):
            lorenz_variance(d1, d2, pairs, IND, GridSpec(8))


class TestNamedSchemes:
    """A scheme's value takes the same route as its member."""

    def data(self):
        pairs = make_pairs(26, 30)
        marginals = EmpiricalDistribution(pairs.x1), EmpiricalDistribution(pairs.x2)
        return {MP: (*marginals, pairs), IND: (*make_data(26, 30, 25), None)}

    @pytest.mark.parametrize("family", [
        DominanceFamily.sd(1), DominanceFamily.sd(2), DominanceFamily.lorenz(1),
        DominanceFamily.inverse_sd(3, Direction.DOWN),
    ])
    def test_std_curve_for(self, family):
        # "matched" once took the independent route: it refused the pairs,
        # and studentized without them
        data = self.data()
        spec = GridSpec(40, (0.0, 12.0)) if family.kind is Family.SD else GridSpec(40)
        for member in (MP, IND):
            named = std_curve_for(family, *data[member][:2], data[member][2], member.value, spec)
            given = std_curve_for(family, *data[member][:2], data[member][2], member, spec)
            assert named.values.tobytes() == given.values.tobytes()
        with pytest.raises(SchemeMismatchError):
            std_curve_for(family, *data[IND][:2], None, "matched", spec)


class TestIsdKernel:
    def test_constant_samples_vanish(self):
        d = EmpiricalDistribution(np.full(15, 2.0))
        kernel = isd_kernel(d, d, None, IND, GridSpec(32))
        assert np.max(np.abs(kernel.matrix)) < 1e-14

    def test_matches_brute_force_matched(self):
        pairs = make_pairs(25)
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        spec = GridSpec(12)
        nodes = spec.nodes()
        combined = np.sqrt(0.5) * min_transform(d2, pairs.x2, nodes) - np.sqrt(
            0.5
        ) * min_transform(d1, pairs.x1, nodes)
        kernel = isd_kernel(d1, d2, pairs, MP, spec)
        np.testing.assert_allclose(kernel.matrix, np.cov(combined), atol=1e-12)

    def test_diagonal_vs_monte_carlo(self):
        # the capped transform min(quantile, x) is bounded, so even a heavy
        # tail leaves the variance estimate stable; matched pairs with
        # independent coordinates against the population-transform MC
        dp = DoublePareto(2.1, 2.2)
        n = 40_000
        rng = child_rng(26, 0)
        pairs = PairedSample(dp.sample(n, rng), dp.sample(n, rng))
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        spec = GridSpec(21)
        k = 10
        kernel = isd_kernel(d1, d2, pairs, MP, spec)
        mc_rng = child_rng(26, 1)
        m = 1_000_000
        v1 = np.minimum(dp.quantile(0.5), dp.sample(m, mc_rng))
        v2 = np.minimum(dp.quantile(0.5), dp.sample(m, mc_rng))
        target = (np.sqrt(0.5) * v2 - np.sqrt(0.5) * v1).var()
        assert kernel.matrix[k, k] == pytest.approx(target, rel=0.05)


class TestSdKernel:
    def test_degenerate_at_saturated_nodes(self):
        # beyond both samples' maxima the CDFs are 1 and the variance vanishes
        d1 = EmpiricalDistribution([0.2, 0.4])
        d2 = EmpiricalDistribution([0.3, 0.5])
        spec = GridSpec(10, (0.0, 1.0))
        kernel = sd_kernel(d1, d2, None, IND, spec)
        assert kernel.matrix[-1, -1] == 0.0

    def test_brownian_bridge_variance(self):
        rng = child_rng(27, 0)
        n = 20_000
        d1 = EmpiricalDistribution(rng.random(n))
        d2 = EmpiricalDistribution(rng.random(n))
        spec = GridSpec(101, (0.0, 1.0))
        kernel = sd_kernel(d1, d2, None, IND, spec)
        k = 50
        assert spec.nodes()[k] == pytest.approx(0.5)
        assert abs(kernel.matrix[k, k] - 0.25) < 0.02

    def test_matched_matches_brute_force(self):
        pairs = make_pairs(28, 40)
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        lo = min(pairs.x1.min(), pairs.x2.min())
        hi = max(pairs.x1.max(), pairs.x2.max())
        spec = GridSpec(15, (lo, hi))
        nodes = spec.nodes()
        share = 0.5
        f1 = d1.cdf(nodes)
        f2 = d2.cdf(nodes)
        x1, x2 = pairs.x1, pairs.x2
        n = nodes.size
        expected = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                joint_ij = np.mean((x1 <= nodes[i]) & (x2 <= nodes[j]))
                joint_ji = np.mean((x1 <= nodes[j]) & (x2 <= nodes[i]))
                expected[i, j] = (
                    (1 - share) * (min(f1[i], f1[j]) - f1[i] * f1[j])
                    + share * (min(f2[i], f2[j]) - f2[i] * f2[j])
                    - 0.5 * (joint_ij - f1[i] * f2[j])
                    - 0.5 * (joint_ji - f1[j] * f2[i])
                )
        kernel = sd_kernel(d1, d2, pairs, MP, spec)
        np.testing.assert_allclose(kernel.matrix, expected, atol=1e-12)

    def test_symmetry(self):
        d1, d2 = make_data(29, 50, 60)
        lo = min(d1.sorted_values[0], d2.sorted_values[0])
        hi = max(d1.sorted_values[-1], d2.sorted_values[-1])
        kernel = sd_kernel(d1, d2, None, IND, GridSpec(40, (lo, hi)))
        np.testing.assert_array_equal(kernel.matrix, kernel.matrix.T)


class TestStdCurve:
    def test_degree_one_is_sqrt_diagonal(self):
        d1, d2 = make_data(30)
        spec = GridSpec(32)
        kernel = reference.lorenz_kernel(d1, d2, None, IND, spec)
        curve = std_curve(kernel, DominanceFamily.lorenz(1))
        np.testing.assert_allclose(
            curve.values, np.sqrt(np.diagonal(kernel.matrix)), atol=1e-15
        )

    def test_constant_kernel_upward(self):
        # double prefix integration of a unit kernel gives variance p**2
        spec = GridSpec(500)
        kernel = CovKernel(spec, np.ones((500, 500)), Family.LORENZ, IND)
        curve = std_curve(kernel, DominanceFamily.lorenz(2))
        assert np.max(np.abs(curve.values - spec.nodes())) <= 2 * spec.step

    def test_zero_kernel(self):
        spec = GridSpec(20)
        kernel = CovKernel(spec, np.zeros((20, 20)), Family.SD, IND)
        assert np.all(std_curve(kernel, DominanceFamily.sd(3)).values == 0.0)

    def test_scaling(self):
        d1, d2 = make_data(31)
        spec = GridSpec(24)
        kernel = reference.lorenz_kernel(d1, d2, None, IND, spec)
        fam = DominanceFamily.lorenz(2, Direction.DOWN)
        base = std_curve(kernel, fam)
        c = 3.7
        scaled = std_curve(
            CovKernel(spec, c**2 * kernel.matrix, Family.LORENZ, IND), fam
        )
        np.testing.assert_allclose(scaled.values, c * base.values, atol=1e-10)

    def test_isd_degree_two_skips_integration(self):
        pairs = make_pairs(33)
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        spec = GridSpec(16)
        kernel = isd_kernel(d1, d2, pairs, MP, spec)
        curve = std_curve(kernel, DominanceFamily.inverse_sd(2))
        np.testing.assert_allclose(
            curve.values, np.sqrt(np.diagonal(kernel.matrix)), atol=1e-15
        )


VALUES = st.one_of(st.integers(1, 4).map(float), st.floats(0.1, 10.0))


@st.composite
def studentization_cases(draw):
    kind, degree, direction = draw(
        st.sampled_from(
            [(Family.LORENZ, m, d) for m in (1, 2, 3, 4) for d in Direction]
            + [
                (Family.INVERSE_SD, m, d)
                for m in (2, 3, 4, 5)
                for d in Direction
                if (m, d) != (2, Direction.DOWN)
            ]
            + [(Family.SD, m, Direction.UP) for m in (1, 2, 3, 4, 5)]
        )
    )
    family = DominanceFamily(kind, degree, direction)
    scheme = draw(st.sampled_from([IND, MP]))
    n1 = draw(st.integers(2, 40))
    n2 = n1 if scheme is MP else draw(st.integers(2, 40))
    x1 = np.array(draw(st.lists(VALUES, min_size=n1, max_size=n1)))
    x2 = np.array(draw(st.lists(VALUES, min_size=n2, max_size=n2)))
    n_points = draw(st.integers(2, 30))
    domain = (0.0, 10.5) if kind is Family.SD else (0.0, 1.0)
    pairs = PairedSample(x1, x2) if scheme is MP else None
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2), pairs, scheme)
    return family, data, GridSpec(n_points, domain)


BUILDERS = {
    Family.LORENZ: reference.lorenz_kernel,
    Family.INVERSE_SD: isd_kernel,
    Family.SD: sd_kernel,
}


def _cancelling_case():
    """Lorenz 3 on matched pairs whose variance at the last node is zero."""
    x1, x2 = np.array([1.0, 1.0]), np.array([1.0, 2.0])
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2), MP)
    return DominanceFamily.lorenz(3), data, GridSpec(2, (0.0, 1.0))


def _small_variance_case():
    """Lorenz 2 on matched pairs whose variance at node 3 is 1e-10 of the largest."""
    x1, x2 = np.array([1.0, 1.0]), np.array([1.0, 0.99999])
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2), MP)
    return DominanceFamily.lorenz(2), data, GridSpec(4, (0.0, 1.0))


def _tiny_step_case():
    """SD 2 on a grid whose squared step underflows: the variance is 0."""
    x1, x2 = np.array([1e-300, 3e-300]), np.array([2e-300, 1e-300])
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2), MP)
    return DominanceFamily.sd(2), data, GridSpec(4, (0.0, 4e-300))


def _high_degree_case(direction):
    """Inverse SD 12 (ten passes) on tied matched pairs."""
    x1 = np.array([1.0, 2.0, 2.0, 3.5, 4.0, 4.0, 6.0, 9.5])
    x2 = np.array([1.5, 2.0, 3.0, 3.0, 5.0, 4.5, 6.0, 7.0])
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2), MP)
    return DominanceFamily.inverse_sd(12, direction), data, GridSpec(7, (0.0, 1.0))


def _one_ulp_case():
    """Lorenz 1 on matched pairs one ulp apart: every variance is rounding noise."""
    x1, x2 = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, np.nextafter(3.0, 4.0)])
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2), MP)
    return DominanceFamily.lorenz(1), data, GridSpec(2)


def _transform_bound(family, d1, d2, spec):
    """A bound on the size of the family's integrated transform of one
    observation: 2 max|x| / mean for Lorenz, max|x| for inverse SD (passes
    over [0, 1] keep it), and L**passes for SD on a domain of width L."""
    if family.kind is Family.SD:
        lo, hi = spec.domain
        return (hi - lo) ** (family.operator_degree - 1)
    tops = [np.max(np.abs(d.sorted_values)) for d in (d1, d2)]
    if family.kind is Family.LORENZ:
        return max(2 * top / d.mean for top, d in zip(tops, (d1, d2)))
    return max(tops)


class TestStdCurveFor:
    @settings(max_examples=300, deadline=None)
    @given(studentization_cases())
    @example(_cancelling_case())
    @example(_small_variance_case())
    @example(_tiny_step_case())
    @example(_high_degree_case(Direction.UP))
    @example(_high_degree_case(Direction.DOWN))
    @example(_one_ulp_case())
    def test_matches_kernel_path(self, case):
        family, data, spec = case
        fast = std_curve_for(family, *data, spec).values
        slow = std_curve(BUILDERS[family.kind](*data, spec), family).values
        var = slow**2
        # The two paths agree on each variance to about 16 eps of the largest,
        # each with its own rounding. Through the square root that error
        # becomes 16 eps max(var) / (2 std), within the std tolerance
        # 1e-12 max(std) only where var >= (8 eps / 1e-12)**2 max(var), about
        # 3e-6 of the largest. Compare variances below that cut (the examples
        # hold a variance of 0 and one of 1e-10 of the largest), stds above.
        cancels = var < (8 * np.finfo(float).eps / 1e-12) ** 2 * np.max(var)
        # std_curve_for reads a variance within 2**-90 of its terms' magnitude
        # as 0. With transforms of size at most t, that magnitude stayed below
        # 0.66 M, M = 4 t**2, over 2826 rank-route draws of this strategy, so
        # only a variance below F = 2**-90 M may read 0. Where every variance
        # is rounding noise, as in the one-ulp example, max(std) is noise too:
        # compare variances below 4 F, within F.
        floor = 2.0**-90 * 4 * _transform_bound(family, *data[:2], spec) ** 2
        cancels |= var < 4 * floor
        if family.kind is Family.SD and family.operator_degree == 1:
            # Two closed forms of one CDF variance, whose terms are at most 1,
            # each with its own rounding (~1e-17): compare variances at all nodes.
            cancels[:] = True
            floor += 4 * np.finfo(float).eps
        np.testing.assert_allclose(
            fast[~cancels], slow[~cancels], rtol=0, atol=1e-12 * np.max(slow)
        )
        np.testing.assert_allclose(
            fast[cancels] ** 2, var[cancels], rtol=0, atol=1e-12 * np.max(var) + floor
        )


class TestFastPath:
    """Fixed cases of std_curve_for against the kernel path."""

    @pytest.mark.parametrize(
        "family",
        [
            DominanceFamily.lorenz(1),
            DominanceFamily.inverse_sd(2),
            DominanceFamily.sd(1),
        ],
    )
    def test_diagonal_path_matches_kernel_path(self, family):
        pairs = make_pairs(34, 60)
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        if family.kind is Family.SD:
            lo = min(pairs.x1.min(), pairs.x2.min())
            hi = max(pairs.x1.max(), pairs.x2.max())
            spec = GridSpec(33, (lo, hi))
        else:
            spec = GridSpec(33)
        for scheme, pair_arg in ((IND, None), (MP, pairs)):
            fast = std_curve_for(family, d1, d2, pair_arg, scheme, spec)
            kernel = BUILDERS[family.kind](d1, d2, pair_arg, scheme, spec)
            slow = std_curve(kernel, family)
            np.testing.assert_allclose(fast.values, slow.values, atol=1e-10)

    def test_integrated_family_uses_kernel(self):
        # std_curve_for integrates the transforms, not the kernel; the two
        # routes to the Lorenz 2 curve must still agree.
        d1, d2 = make_data(35)
        spec = GridSpec(25)
        fam = DominanceFamily.lorenz(2)
        fast = std_curve_for(fam, d1, d2, None, IND, spec)
        slow = std_curve(reference.lorenz_kernel(d1, d2, None, IND, spec), fam)
        np.testing.assert_allclose(fast.values, slow.values, atol=1e-12)


class TestMultiChunk:
    """Force several observation chunks of the dense kernels, the last one
    shorter than the rest."""

    N_POINTS = 16
    CHUNK = 13  # 50 pairs -> 13+13+13+11, 60 and 45 observations -> 8 and 6 left over

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(reference, "_CHUNK_BUDGET", self.CHUNK * self.N_POINTS)

    def assert_close(self, actual, expected):
        np.testing.assert_allclose(
            actual, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected))
        )

    @pytest.mark.parametrize(
        "builder, transform",
        [(reference.lorenz_kernel, lorenz_transform), (isd_kernel, min_transform)],
        ids=["lorenz", "isd"],
    )
    def test_kernels_match_brute_force(self, builder, transform):
        spec = GridSpec(self.N_POINTS)
        nodes = spec.nodes()
        d1, d2 = make_data(36)
        share1 = d1.n / (d1.n + d2.n)
        expected = (1 - share1) * np.cov(
            transform(d1, d1.sorted_values, nodes)
        ) + share1 * np.cov(transform(d2, d2.sorted_values, nodes))
        self.assert_close(builder(d1, d2, None, IND, spec).matrix, expected)
        pairs = make_pairs(36)
        p1 = EmpiricalDistribution(pairs.x1)
        p2 = EmpiricalDistribution(pairs.x2)
        combined = np.sqrt(0.5) * transform(p2, pairs.x2, nodes) - np.sqrt(
            0.5
        ) * transform(p1, pairs.x1, nodes)
        self.assert_close(builder(p1, p2, pairs, MP, spec).matrix, np.cov(combined))


@pytest.mark.parametrize("downward", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
def test_iterated_cumsum_leaves_input_unchanged(downward, axis):
    values = child_rng(38, 0).normal(size=(5, 7))
    original = values.copy()
    out = iterated_cumsum(values, 0.1, 3, downward, axis=axis)
    np.testing.assert_array_equal(values, original)
    assert not np.shares_memory(out, values)


def integrated_variances(downward, d1, d2, pairs, spec, checked, passes=3, chunk=100):
    """Per-node variances of the Lorenz and the inverse-SD integrated
    transforms after 0..``passes`` integration passes, at the ``checked``
    nodes, in plain numpy, node chunk by node chunk (the running integrals
    carried from one chunk to the next): for each family kind, the
    independent mixture of the two samples (of equal size) and the matched
    combination. The Lorenz transform integrates as its two parts,
    ``I(lorenz) x`` and ``I(min(quantile, x))``."""
    nodes = spec.nodes()
    order = np.arange(spec.n_points)[::-1] if downward else np.arange(spec.n_points)
    samples = ((d1, pairs.x1), (d2, pairs.x2))
    carried = {}
    out = {
        kind: (np.full((passes + 1, spec.n_points), np.nan), np.full((passes + 1, spec.n_points), np.nan))
        for kind in (Family.LORENZ, Family.INVERSE_SD)
    }
    for lo in range(0, spec.n_points, chunk):
        at = order[lo : lo + chunk]
        keep = checked[at]
        mins = [min_transform(dist, x, nodes[at]) for dist, x in samples]
        lors = [dist.lorenz(nodes[at]) for dist, _ in samples]
        for level in range(passes + 1):
            if level:
                for s, part in enumerate(mins + lors):
                    np.cumsum(part, axis=0, out=part)
                    part *= spec.step
                    part += carried.get((s, level), 0.0)
                    carried[s, level] = part[-1].copy()
            kept = {
                Family.INVERSE_SD: [block[keep] for block in mins],
                Family.LORENZ: [
                    (lor[keep, None] * x - block[keep]) / dist.mean
                    for lor, block, (dist, x) in zip(lors, mins, samples)
                ],
            }
            for kind, blocks in kept.items():
                independent, matched = out[kind]
                spread = [block.var(axis=1, ddof=1) for block in blocks]
                independent[level, at[keep]] = 0.5 * spread[0] + 0.5 * spread[1]
                matched[level, at[keep]] = 0.5 * (blocks[1] - blocks[0]).var(axis=1, ddof=1)
    return out


class TestLargeCase:
    """The rank-bin route against the plain transform variance on heavy-tailed,
    rounded (tied) data at a fine grid, where a one-sided expansion of the
    sums loses digits at the top nodes."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = child_rng(40, 0)
        x1 = np.round(rng.pareto(1.3, 5000) + 1.0, 1)
        x2 = np.round(0.5 * x1 + rng.pareto(1.3, 5000) + 1.0, 1)
        return EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_matches_transform_variance(self, data, direction):
        d1, d2, pairs = data
        spec = GridSpec(10_000)
        # the 100 nodes at either end, where the sums cancel most, and every
        # eighth node between them (the reference costs O(n) per checked node)
        index = np.arange(spec.n_points)
        checked = (index % 8 == 0) | (index < 100) | (index >= spec.n_points - 100)
        down = direction is Direction.DOWN
        variances = integrated_variances(down, d1, d2, pairs, spec, checked)
        for kind, (independent, matched) in variances.items():
            for passes in range(1 if down else 0, 4):
                degree = passes + (1 if kind is Family.LORENZ else 2)
                family = DominanceFamily(kind, degree, direction)
                for scheme, pair_arg, var in ((IND, None, independent), (MP, pairs, matched)):
                    expected = np.sqrt(var[passes, checked])
                    fast = std_curve_for(family, d1, d2, pair_arg, scheme, spec).values[checked]
                    np.testing.assert_allclose(
                        fast, expected, rtol=0, atol=1e-12 * np.max(expected),
                        err_msg=f"{family} {scheme}",
                    )


class TestLargeSdCase:
    """The rank-bin route for SD against the integrated sd_kernel on
    heavy-tailed, rounded (tied) data far from the origin. There the nodes
    are up to 6e-8 off their exact values, so a hinge in node values instead
    of node indices misses the kernel path by about 1e-9 of the largest std."""

    OFFSET = 1e9

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_matches_kernel_path(self, degree):
        rng = child_rng(41, 0)
        tail1, tail2 = rng.pareto(1.3, 3000), rng.pareto(1.3, 3000)
        x1 = np.round(tail1 + self.OFFSET, 1)
        x2 = np.round(0.5 * tail1 + tail2 + self.OFFSET, 1)
        d1, d2, pairs = EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2)
        spec = GridSpec(2000, (self.OFFSET, float(max(x1.max(), x2.max()))))
        family = DominanceFamily.sd(degree)
        for scheme, pair_arg in ((IND, None), (MP, pairs)):
            fast = std_curve_for(family, d1, d2, pair_arg, scheme, spec).values
            slow = std_curve(sd_kernel(d1, d2, pair_arg, scheme, spec), family).values
            np.testing.assert_allclose(
                fast, slow, rtol=0, atol=1e-12 * np.max(slow), err_msg=f"{family} {scheme}"
            )


def test_memory_is_linear_in_n_plus_g():
    # every family at every degree up to 3 builds nothing of size n * G or
    # G * G
    n, n_points = 50_000, 10_000
    rng = child_rng(42, 0)
    x1 = rng.pareto(1.3, n) + 1.0
    x2 = 0.5 * x1 + rng.pareto(1.3, n) + 1.0
    data = (EmpiricalDistribution(x1), EmpiricalDistribution(x2))
    pairs = PairedSample(x1, x2)
    # about sixty float64 arrays of either length at once; one n-by-G block
    # of the transform route would be 4 GB
    cap = 64 * 8 * (n + n_points)
    families = [DominanceFamily.lorenz(m) for m in (1, 2, 3)]
    families += [DominanceFamily.inverse_sd(2), DominanceFamily.inverse_sd(3)]
    families += [DominanceFamily.lorenz(3, Direction.DOWN), DominanceFamily.inverse_sd(3, Direction.DOWN)]
    families += [DominanceFamily.sd(m) for m in (1, 2, 3)]
    for family in families:
        domain = (1.0, float(max(x1.max(), x2.max()))) if family.kind is Family.SD else (0.0, 1.0)
        spec = GridSpec(n_points, domain)
        for scheme, pair_arg in ((IND, None), (MP, pairs)):
            tracemalloc.start()
            try:
                std_curve_for(family, *data, pair_arg, scheme, spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cap, f"{family} {scheme}: peak {peak} bytes, cap {cap}"


@st.composite
def binned_weights(draw):
    """Weights with ranks 0..n_points (the top rank is dropped from the
    bins): mixed signs, magnitudes from 1e-300 to 1e300, zeros, pairs that
    cancel exactly or nearly, and double-double weights with a low part."""
    n_points = draw(st.integers(1, 12))
    size = draw(st.integers(1, 120))
    magnitude = st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0),
        st.integers(-300, 299),
    )
    hi = np.array(draw(st.lists(st.one_of(magnitude, st.just(0.0)), min_size=size, max_size=size)))
    if draw(st.booleans()):  # every weight followed by its negative, nudged or not
        nudge = draw(st.sampled_from([0.0, 2.0**-52, 1e-9]))
        hi = np.concatenate((hi, -hi * (1.0 + nudge)))
    lo = hi * draw(st.sampled_from([0.0, 2.0**-60, -(2.0**-80)]))
    if draw(st.booleans()):
        ranks = np.full(hi.size, draw(st.integers(0, n_points)))
    else:
        rank = st.integers(0, n_points)
        ranks = np.array(draw(st.lists(rank, min_size=hi.size, max_size=hi.size)))
    return n_points, ranks, hi, lo


@settings(max_examples=300, deadline=None)
@given(binned_weights())
# magnitudes near the top of the float range, and the smallest subnormal
@example((1, np.zeros(4, dtype=int), np.array([1.7e308, -1.6e308, 1.0, 2.0**-1074]), np.zeros(4)))
def test_bin_sums_are_exact(case):
    n_points, ranks, hi, lo = case
    tally = covariance._Tally(n_points)
    tally.add("w", ranks, covariance._Wide(hi, lo))
    got = tally.bins("w")
    for rank in range(n_points):
        inside = ranks == rank
        weights = [Fraction(h) + Fraction(l) for h, l in zip(hi[inside], lo[inside])]
        exact, size = sum(weights, Fraction(0)), sum(map(abs, weights), Fraction(0))
        miss = abs(Fraction(got.hi[rank]) + Fraction(got.lo[rank]) - exact)
        assert miss <= size * Fraction(2) ** -100, (rank, float(miss), float(size))


TIED = np.round(child_rng(43, 0).pareto(1.3, 2 * 45) + 1.0, 1) + 50.0
BLOCK_FAMILIES = (
    [DominanceFamily.lorenz(m, d) for m in (1, 2, 3) for d in Direction]
    + [DominanceFamily.inverse_sd(m) for m in (2, 3, 4)]
    + [DominanceFamily.inverse_sd(m, Direction.DOWN) for m in (3, 4)]
    + [DominanceFamily.sd(m) for m in (2, 3)]
)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_size_does_not_matter(block, monkeypatch):
    # tied data off the origin, read one observation, seven or all at a time
    x1, x2 = TIED[:45], np.round(0.5 * TIED[:45] + TIED[45:], 1)
    d1, d2, pairs = EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2)
    cases = []
    for family in BLOCK_FAMILIES:
        domain = (50.0, float(max(x1.max(), x2.max()))) if family.kind is Family.SD else (0.0, 1.0)
        for scheme, pair_arg in ((IND, None), (MP, pairs)):
            data = (d1, d2, pair_arg, scheme, GridSpec(23, domain))
            cases.append((family, data, std_curve_for(family, *data).values))
    monkeypatch.setattr(covariance, "_BLOCK", block)
    for family, data, expected in cases:
        np.testing.assert_allclose(
            std_curve_for(family, *data).values, expected, rtol=0,
            atol=1e-13 * np.max(expected), err_msg=f"{family} {data[3]}",
        )


def test_lorenz_scale_does_not_matter():
    # the Lorenz transform is scale-free: data scaled by a power of two,
    # whose squares overflow, give the same curves bit for bit
    d1, d2 = make_data(44, 70, 70)
    pairs = make_pairs(44, 70)
    spec = GridSpec(40)

    def results(scale):
        p1, p2 = EmpiricalDistribution(pairs.x1 * scale), EmpiricalDistribution(pairs.x2 * scale)
        cases = [
            (EmpiricalDistribution(d1.sorted_values * scale),
             EmpiricalDistribution(d2.sorted_values * scale), None, IND),
            (p1, p2, PairedSample(pairs.x1 * scale, pairs.x2 * scale), MP),
        ]
        return [
            std_curve_for(DominanceFamily.lorenz(degree), *data, spec).values
            for degree in (1, 2)
            for data in cases
        ]

    for got, expected in zip(results(2.0**520), results(1.0)):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("degree", [2, 3])
def test_overflowing_variance_raises(degree):
    x1 = np.array([1e308, 1.5e308, 1.7e308, 1.0])
    x2 = np.array([1.0, 2.0, 3.0, 4.0])
    d1, d2 = EmpiricalDistribution(x1), EmpiricalDistribution(x2)
    family = DominanceFamily.inverse_sd(degree)
    for scheme, pair_arg in ((IND, None), (MP, PairedSample(x1, x2))):
        with pytest.raises(NumericOverflowError):
            std_curve_for(family, d1, d2, pair_arg, scheme, GridSpec(10))


@pytest.mark.parametrize("degree", [2, 3])
def test_huge_value_above_every_node_quantile(degree):
    # min(q, x) never reaches the 1e308 above every node quantile, so the
    # upward inverse-SD variance is finite; its zero slope drops the terms in
    # x itself, whose squares would overflow
    x1 = np.array([1.0, 1.0, 1e308, 0.0, 1.0])
    x2 = np.array([2.0, 1.0, 1e308, 0.0, 1.0])
    d1, d2 = EmpiricalDistribution(x1), EmpiricalDistribution(x2)
    family, spec = DominanceFamily.inverse_sd(degree), GridSpec(2)
    for scheme, pair_arg in ((IND, None), (MP, PairedSample(x1, x2))):
        fast = std_curve_for(family, d1, d2, pair_arg, scheme, spec).values
        slow = std_curve(isd_kernel(d1, d2, pair_arg, scheme, spec), family).values
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-15 * np.max(slow))


def test_downward_precision_where_pairs_nearly_coincide():
    # ISD 3 down on matched pairs that agree to about 1e-9 (every third pair
    # exactly), against the exact variance of the integrated transform
    # step * sum_{k >= j} min(q_k, x). The rank-bin route misses it by up to
    # about 2e-8 of the largest std here (see std_curve_for); the bound pins
    # that loss.
    rng = child_rng(2, 0)
    x1 = np.round(rng.pareto(1.3, 300) + 1.0, 1)
    x2 = x1 * (1.0 + 1e-9 * rng.normal(size=300))
    x2[::3] = x1[::3]
    d1, d2, pairs = EmpiricalDistribution(x1), EmpiricalDistribution(x2), PairedSample(x1, x2)
    spec = GridSpec(1000)
    family = DominanceFamily.inverse_sd(3, Direction.DOWN)
    std = std_curve_for(family, d1, d2, pairs, MP, spec).values
    sides = []
    for dist, x in ((d1, x1), (d2, x2)):
        quant = [Fraction(q) for q in dist.quantile(spec.nodes())]
        suffix = [Fraction(0)] * (spec.n_points + 1)
        for k in range(spec.n_points - 1, -1, -1):
            suffix[k] = suffix[k + 1] + quant[k]
        ranks = np.searchsorted(dist.quantile(spec.nodes()), x, side="right")
        sides.append((suffix, ranks, [Fraction(v) for v in x]))
    step = Fraction(spec.step)
    for node in (0, 1, 2, 5, 10, 20, 50, *range(100, 1000, 100), 999):
        diffs = []
        for i in range(pairs.n):
            sums = []
            for suffix, ranks, x in sides:
                last = max(node, int(ranks[i]))  # min(q_k, x) is x from here on
                sums.append(suffix[node] - suffix[last] + x[i] * (spec.n_points - last))
            diffs.append(sums[1] - sums[0])
        mean = sum(diffs) / pairs.n
        var = step * step * sum((d - mean) ** 2 for d in diffs) / (2 * (pairs.n - 1))
        assert abs(std[node] - np.sqrt(float(var))) <= 1e-6 * np.max(std), node
