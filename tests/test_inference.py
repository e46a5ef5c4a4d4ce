"""Contact sets, directional derivative, bootstrap interval, tuning selection."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from almostdom.calculus import GridFunction, GridSpec, area_ratio, negative_area, positive_area
from almostdom.coefficients import Direction, DominanceFamily, Family, coefficient, default_grid
from almostdom.empirical import EmpiricalDistribution, PairedSample, Sample, SamplingScheme
from almostdom.errors import (
    GridMismatchError,
    InvalidConfigError,
    NonFiniteDrawError,
    NumericOverflowError,
    SchemeMismatchError,
)
from almostdom.inference import (
    BootstrapResult,
    ContactSets,
    InferenceConfig,
    bootstrap_ci,
    contact_sets,
    derivative,
    select_tuning,
    tuning_table,
)
from almostdom.inference import _inf_quantile
from almostdom.rng import child_rng
from almostdom.simulation import DoublePareto

IND = SamplingScheme.INDEPENDENT
MP = SamplingScheme.MATCHED

# SD 1 draws do not see a power-of-two scale 2**k of the data while the data
# stay finite and every step-scaled term of a draw stays normal, down to the
# grid step times one observation's share of a scaled CDF, sqrt(n / 2) / n
_SCALE_RNG = child_rng(46, 0)
SCALE_PAIRS = PairedSample(
    _SCALE_RNG.lognormal(0.0, 0.5, 90), _SCALE_RNG.lognormal(0.1, 1.2, 90)
)
_HI = max(SCALE_PAIRS.x1.max(), SCALE_PAIRS.x2.max())
_STEP = (_HI - min(SCALE_PAIRS.x1.min(), SCALE_PAIRS.x2.min())) / 150
K_MAX = 1024 - int(np.frexp(_HI)[1])
K_MIN = -1021 - int(np.frexp(_STEP * np.sqrt(45.0) / 90)[1])


def cfg_with(**kwargs):
    base = dict(t_n=0.001, seed=0)
    base.update(kwargs)
    return InferenceConfig(**base)


def lorenz_pairs(seed, n=120):
    rng = child_rng(seed, 0)
    dp1, dp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0)
    return PairedSample(dp1.sample(n, rng), dp2.sample(n, rng))


class TestInferenceConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            InferenceConfig(t_n=0.0, seed=0)
        with pytest.raises(InvalidConfigError):
            InferenceConfig(t_n=1.0, seed=0, xi0=0.0)
        with pytest.raises(InvalidConfigError):
            InferenceConfig(t_n=1.0, seed=0, n_boot=0)
        with pytest.raises(InvalidConfigError):
            InferenceConfig(t_n=1.0, seed=0, alpha=0.6)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None, -1, 2**64])
    def test_bad_seed(self, seed):
        with pytest.raises(InvalidConfigError):
            InferenceConfig(t_n=1.0, seed=seed)

    @pytest.mark.parametrize("n_boot", [2.5, 7.0, True, "3", None])
    def test_non_integer_n_boot(self, n_boot):
        with pytest.raises(InvalidConfigError, match="n_boot must be an integer"):
            InferenceConfig(t_n=1.0, seed=0, n_boot=n_boot)

    @pytest.mark.parametrize("name", ["n_cal_reps", "n_cal_boot"])
    @pytest.mark.parametrize("count", [2.5, 10.5, 3.0, True, "3", 0])
    def test_bad_calibration_counts(self, name, count):
        pairs, fam, spec = lorenz_pairs(1, n=30), DominanceFamily.lorenz(1), GridSpec(20)
        counts = {"n_cal_reps": 2, "n_cal_boot": 5, name: count}
        with pytest.raises(InvalidConfigError, match=name):
            tuning_table(pairs, fam, MP, spec, cfg_with(), [1.0], **counts)

    def test_numpy_integer_counts(self):
        pairs, fam, spec = lorenz_pairs(1, n=30), DominanceFamily.lorenz(1), GridSpec(20)
        got = bootstrap_ci(pairs, fam, MP, spec, cfg_with(n_boot=np.int64(10)))
        want = bootstrap_ci(pairs, fam, MP, spec, cfg_with(n_boot=10))
        np.testing.assert_array_equal(got.draws, want.draws)
        counts = [np.int64(2), np.uint8(5)]
        assert tuning_table(pairs, fam, MP, spec, cfg_with(), [1.0], *counts) == tuning_table(
            pairs, fam, MP, spec, cfg_with(), [1.0], 2, 5
        )

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        pairs, fam, spec = lorenz_pairs(1, n=30), DominanceFamily.lorenz(1), GridSpec(20)
        got = bootstrap_ci(pairs, fam, MP, spec, cfg_with(seed=seed, n_boot=10))
        want = bootstrap_ci(pairs, fam, MP, spec, cfg_with(seed=int(seed), n_boot=10))
        np.testing.assert_array_equal(got.draws, want.draws)


class TestContactSets:
    def test_zero_curve_all_in_contact_set(self):
        spec = GridSpec(50)
        diff = GridFunction(spec, np.zeros(50))
        std = GridFunction(spec, np.ones(50))
        sets = contact_sets(diff, std, 100.0, cfg_with(t_n=1.0))
        assert np.all(sets.zero)

    def test_large_signal_all_positive(self):
        spec = GridSpec(20)
        diff = GridFunction(spec, np.ones(20))
        std = GridFunction(spec, np.ones(20))
        sets = contact_sets(diff, std, 1e4, cfg_with(t_n=10.0))
        assert np.all(sets.plus)

    def test_trimmed_studentization_window(self):
        # with a vanishing std curve the trim floor drives the window:
        # |p - 0.5| / 0.001 <= 100 puts exactly |p - 0.5| <= 0.1 in the set
        spec = GridSpec(1000)
        nodes = spec.nodes()
        diff = GridFunction(spec, nodes - 0.5)
        std = GridFunction(spec, np.zeros(1000))
        sets = contact_sets(diff, std, 1.0, cfg_with(t_n=100.0, xi0=0.001))
        np.testing.assert_array_equal(sets.zero, np.abs(nodes - 0.5) <= 0.1)
        np.testing.assert_array_equal(sets.plus, nodes - 0.5 > 0.1)
        np.testing.assert_array_equal(sets.minus, nodes - 0.5 < -0.1)

    def test_partition(self):
        rng = child_rng(40, 0)
        spec = GridSpec(300)
        diff = GridFunction(spec, rng.normal(size=300))
        std = GridFunction(spec, np.abs(rng.normal(size=300)))
        sets = contact_sets(diff, std, 123.0, cfg_with(t_n=0.7))
        total = sets.plus.astype(int) + sets.minus.astype(int) + sets.zero.astype(int)
        assert np.all(total == 1)

    def test_records_threshold_settings(self):
        spec = GridSpec(10)
        diff = GridFunction(spec, np.ones(10))
        std = GridFunction(spec, np.ones(10))
        sets = contact_sets(diff, std, 4.0, cfg_with(t_n=0.7, xi0=0.002))
        assert sets.t_n == 0.7 and sets.xi0 == 0.002

    def test_monotone_in_threshold(self):
        rng = child_rng(41, 0)
        spec = GridSpec(200)
        diff = GridFunction(spec, rng.normal(size=200))
        std = GridFunction(spec, np.abs(rng.normal(size=200)) + 0.1)
        small = contact_sets(diff, std, 50.0, cfg_with(t_n=0.3))
        large = contact_sets(diff, std, 50.0, cfg_with(t_n=2.5))
        assert np.all(large.zero[small.zero])

    def test_grid_mismatch(self):
        diff = GridFunction(GridSpec(10), np.zeros(10))
        std = GridFunction(GridSpec(11), np.zeros(11))
        with pytest.raises(GridMismatchError):
            contact_sets(diff, std, 1.0, cfg_with())


class TestDerivative:
    def setup_method(self):
        # diff with positive area 0.3 and negative area 0.1
        self.spec = GridSpec(1000)
        values = np.where(self.spec.nodes() < 0.5, 0.6, -0.2)
        self.diff = GridFunction(self.spec, values)
        assert positive_area(self.diff) == pytest.approx(0.3)
        assert negative_area(self.diff) == pytest.approx(0.1)

    def all_plus(self):
        n = self.spec.n_points
        return ContactSets(
            plus=np.ones(n, bool), minus=np.zeros(n, bool), zero=np.zeros(n, bool)
        )

    def test_zero_direction(self):
        h = GridFunction(self.spec, np.zeros(1000))
        sets = self.all_plus()
        assert derivative(h, sets, self.diff) == 0.0

    def test_quotient_rule_fixture(self):
        # all-positive masks and h = 1: (1 * 0.1 - 0.3 * 0) / 0.4**2 = 0.625
        h = GridFunction(self.spec, np.ones(1000))
        value = derivative(h, self.all_plus(), self.diff)
        assert value == pytest.approx(0.625)

    def test_positive_homogeneity(self):
        rng = child_rng(42, 0)
        h = GridFunction(self.spec, rng.normal(size=1000))
        std = GridFunction(self.spec, np.abs(rng.normal(size=1000)))
        sets = contact_sets(self.diff, std, 25.0, cfg_with(t_n=1.0))
        base = derivative(h, sets, self.diff)
        for c in (2.0, 17.5, 0.001):
            assert derivative(c * h, sets, self.diff) == pytest.approx(
                c * base, abs=1e-12 * max(1, c)
            )

    def test_overflowing_curve_raises(self):
        # the node sums of the curve overflow, as they do in area_ratio
        spec = GridSpec(2)
        diff = GridFunction(spec, np.array([1e308, 1e308]))
        sets = ContactSets(plus=np.ones(2, bool), minus=np.zeros(2, bool), zero=np.zeros(2, bool))
        with pytest.raises(NumericOverflowError):
            area_ratio(diff)
        with pytest.raises(NumericOverflowError):
            derivative(GridFunction(spec, np.ones(2)), sets, diff)

    def test_lipschitz_bound(self):
        rng = child_rng(43, 0)
        pos, neg = 0.3, 0.1
        bound = 2 * (pos + neg + max(pos, neg)) / (pos + neg) ** 2
        std = GridFunction(self.spec, np.abs(rng.normal(size=1000)))
        sets = contact_sets(self.diff, std, 25.0, cfg_with(t_n=1.0))
        for _ in range(20):
            h1 = GridFunction(self.spec, rng.normal(size=1000))
            h2 = GridFunction(self.spec, rng.normal(size=1000))
            gap = abs(derivative(h1, sets, self.diff) - derivative(h2, sets, self.diff))
            assert gap <= bound * np.max(np.abs(h1.values - h2.values)) + 1e-12


@st.composite
def curves_with_zeros(draw):
    """A difference curve with exact-zero nodes, its true sign sets and a
    direction, supported on the zero set alone in half the draws. No
    nonzero node changes sign under a step of up to 1e-3 along it."""
    n = draw(st.integers(2, 200))
    signs = draw(hnp.arrays(float, n, elements=st.sampled_from([-1.0, 0.0, 1.0])))
    assume(np.any(signs))
    sizes = draw(hnp.arrays(float, n, elements=st.floats(0.01, 100.0)))
    h = draw(hnp.arrays(float, n, elements=st.floats(-10.0, 10.0)))
    if draw(st.booleans()):
        h = np.where(signs == 0.0, h, 0.0)
    spec = GridSpec(n, (0.0, draw(st.sampled_from([1.0, 1e-3, 50.0]))))
    sets = ContactSets(plus=signs > 0, minus=signs < 0, zero=signs == 0)
    return GridFunction(spec, signs * sizes), GridFunction(spec, h), sets


@settings(max_examples=200, deadline=None)
@given(curves_with_zeros())
def test_derivative_is_the_limit_of_difference_quotients(case):
    # Along h the areas move linearly, P + eps a and T + eps s with |a|, |s|
    # at most S = step * sum|h|, so the map is (P + eps a) / (T + eps s). Its
    # difference quotient misses the derivative (aT - Ps) / T**2 by
    # eps |aT - Ps| |s| / (T**2 T_eps) <= 2 eps S**2 / (T T_eps), T_eps being
    # the total area at eps; rounding adds a few n ulps of the ratio over eps.
    diff, h, sets = case
    n, step = diff.spec.n_points, diff.spec.step
    value = derivative(h, sets, diff)
    total = positive_area(diff) + negative_area(diff)
    spread = np.abs(h.values).sum() * step
    for eps in (1e-4, 1e-6):
        moved = GridFunction(diff.spec, diff.values + h.values * eps)
        quotient = (area_ratio(moved) - area_ratio(diff)) / eps
        moved_total = positive_area(moved) + negative_area(moved)
        bound = 2 * eps * spread**2 / (total * moved_total)
        rounding = 8 * n * np.finfo(float).eps * (1 / eps + spread / total)
        assert abs(quotient - value) <= bound + rounding, (eps, quotient, value)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(float, st.integers(2, 64), elements=st.floats(-1e60, 1e60)),
    hnp.arrays(float, 64, elements=st.floats(-10.0, 10.0)),
)
@example(np.array([0.0, 5e-324]), np.linspace(-1.0, 2.0, 64))
def test_ratio_and_derivative_are_scale_free(values, h):
    # both maps read unscaled node sums, so the grid step, and with it the
    # domain width, leaves them bit for bit; the ratio still refuses a
    # curve whose scaled total area overflows
    assume(np.any(values))
    n = values.size
    h = h[:n]
    sets = ContactSets(plus=values > 0, minus=values < 0, zero=values == 0)
    results = []
    for width in (1.0, 2.0**-1000, 2.0**900):
        spec = GridSpec(n, (0.0, width))
        diff = GridFunction(spec, values)
        try:
            ratio = area_ratio(diff)
        except NumericOverflowError:
            assert width > 1.0
            assert positive_area(diff) + negative_area(diff) > np.finfo(float).max / 2
            ratio = None
        with np.errstate(over="ignore", invalid="ignore"):
            value = derivative(GridFunction(spec, h), sets, diff)
        results.append((ratio, np.float64(value).tobytes()))
    (ratio, value), *others = results
    for other_ratio, other_value in others:
        assert other_ratio in (ratio, None) and other_value == value


def test_interval_where_the_scaled_areas_underflow():
    # 40 matched pairs on [0, 4e-300]: at SD 2 both scaled areas read 0, but
    # the node sums are near 1e-299 and the draws of order 1-10
    rng = child_rng(0, 0)
    pairs = PairedSample(rng.uniform(0.0, 4e-300, 40), rng.uniform(0.0, 4e-300, 40))
    fam = DominanceFamily.sd(2)
    d1, d2 = EmpiricalDistribution(pairs.x1), EmpiricalDistribution(pairs.x2)
    spec = default_grid(fam, d1, d2, 50)
    est = coefficient(fam, d1, d2, spec)
    assert est.pos_area == est.neg_area == 0.0 and 0.0 < est.c_hat < 1.0
    result = bootstrap_ci(pairs, fam, MP, spec, cfg_with(t_n=1.0, n_boot=200))
    assert result.estimate.c_hat == est.c_hat
    assert result.n_boot_effective == 200 and np.all(np.isfinite(result.draws))
    lo, hi = result.ci
    assert 0.0 < lo < est.c_hat <= hi


class TestInfQuantile:
    def test_order_statistic_convention(self):
        draws = np.arange(1.0, 11.0)
        assert _inf_quantile(draws, 0.25) == 3.0  # ceil(2.5) = 3rd smallest
        assert _inf_quantile(draws, 0.30) == 3.0
        assert _inf_quantile(draws, 1.0) == 10.0
        assert _inf_quantile(draws, 0.001) == 1.0


class TestBootstrapCi:
    def test_seeded_determinism(self):
        pairs = lorenz_pairs(44)
        fam = DominanceFamily.lorenz(1)
        spec = GridSpec(200)
        cfg = cfg_with(seed=99, n_boot=60)
        first = bootstrap_ci(pairs, fam, MP, spec, cfg)
        second = bootstrap_ci(pairs, fam, MP, spec, cfg)
        np.testing.assert_array_equal(first.draws, second.draws)
        assert first.ci == second.ci
        assert first.n_boot_effective == second.n_boot_effective == 60

    def test_parallel_matches_serial(self):
        pairs = lorenz_pairs(45, n=80)
        fam = DominanceFamily.lorenz(1)
        spec = GridSpec(128)
        cfg = cfg_with(seed=7, n_boot=24)
        serial = bootstrap_ci(pairs, fam, MP, spec, cfg, n_jobs=1)
        parallel = bootstrap_ci(pairs, fam, MP, spec, cfg, n_jobs=2)
        np.testing.assert_array_equal(serial.draws, parallel.draws)
        assert serial.ci == parallel.ci

    def test_parallel_single_replicate(self):
        pairs = lorenz_pairs(45, n=80)
        fam = DominanceFamily.lorenz(1)
        cfg = cfg_with(seed=7, n_boot=1)
        serial = bootstrap_ci(pairs, fam, MP, GridSpec(128), cfg, n_jobs=1)
        parallel = bootstrap_ci(pairs, fam, MP, GridSpec(128), cfg, n_jobs=2)
        np.testing.assert_array_equal(serial.draws, parallel.draws)
        assert serial.ci == parallel.ci and parallel.n_boot_effective == 1

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(K_MIN, K_MAX))
    @example(k=-520)  # the squared area of the difference curve is subnormal
    @example(k=K_MIN)
    @example(k=K_MAX)
    def test_sd_draws_are_scale_free(self, k):
        fam = DominanceFamily.sd(1)
        cfg = cfg_with(t_n=0.5, seed=5, n_boot=80)
        results = []
        for exponent in (0, k):
            data = PairedSample(
                np.ldexp(SCALE_PAIRS.x1, exponent), np.ldexp(SCALE_PAIRS.x2, exponent)
            )
            d1, d2 = EmpiricalDistribution(data.x1), EmpiricalDistribution(data.x2)
            spec = default_grid(fam, d1, d2, 150)
            results.append(bootstrap_ci(data, fam, MP, spec, cfg))
        base, scaled = results
        assert 0.0 < base.estimate.c_hat < 1.0
        np.testing.assert_array_equal(scaled.draws, base.draws)
        assert scaled.ci == base.ci

    @pytest.mark.parametrize("scheme", [MP, IND])
    def test_prefix_stability(self, scheme):
        pairs = lorenz_pairs(51, n=70)
        data = pairs if scheme is MP else (Sample(pairs.x1), Sample(pairs.x2[:50]))
        fam = DominanceFamily.lorenz(1)
        short = bootstrap_ci(data, fam, scheme, GridSpec(100), cfg_with(seed=4, n_boot=30))
        long = bootstrap_ci(data, fam, scheme, GridSpec(100), cfg_with(seed=4, n_boot=60))
        np.testing.assert_array_equal(short.draws, long.draws[:30])

    def test_clamped_to_unit(self):
        pairs = lorenz_pairs(46, n=40)
        fam = DominanceFamily.lorenz(1)
        spec = GridSpec(128)
        result = bootstrap_ci(pairs, fam, MP, spec, cfg_with(seed=3, n_boot=80))
        assert 0.0 <= result.ci[0] <= result.ci[1] <= 1.0

    def test_no_clamp_can_exit_unit(self):
        # small noisy sample: the raw interval leaves [0, 1] on both sides
        pairs = lorenz_pairs(0, n=50)
        fam = DominanceFamily.lorenz(1)
        spec = GridSpec(100)
        clamped = bootstrap_ci(pairs, fam, MP, spec, cfg_with(seed=5, n_boot=200))
        raw = bootstrap_ci(
            pairs, fam, MP, spec, cfg_with(seed=5, n_boot=200, clamp_to_unit=False)
        )
        assert 0.0 <= clamped.ci[0] and clamped.ci[1] <= 1.0
        assert raw.ci[0] < 0.0 and raw.ci[1] > 1.0
        assert clamped.estimate.c_hat == raw.estimate.c_hat

    def test_independent_scheme(self):
        rng = child_rng(47, 0)
        data = (
            Sample(DoublePareto(3.0, 1.5).sample(90, rng)),
            Sample(DoublePareto(2.1, 4.0).sample(150, rng)),
        )
        fam = DominanceFamily.lorenz(1)
        result = bootstrap_ci(data, fam, IND, GridSpec(128), cfg_with(seed=1, n_boot=50))
        assert isinstance(result, BootstrapResult)
        assert result.estimate.n1 == 90 and result.estimate.n2 == 150

    def test_contact_set_sizes_reported(self):
        pairs = lorenz_pairs(48, n=200)
        fam, spec = DominanceFamily.lorenz(1), GridSpec(100)
        counts = []
        for t_n in (1e-12, 1.0, 1e12):
            cfg = cfg_with(t_n=t_n, seed=3, n_boot=20)
            result = bootstrap_ci(pairs, fam, MP, spec, cfg)
            est = result.estimate
            sets = contact_sets(est.difference, result.std, est.effective_n, cfg)
            got = (result.plus_nodes, result.minus_nodes, result.zero_nodes)
            assert got == (sets.plus.sum(), sets.minus.sum(), sets.zero.sum())
            counts.append(got)
        assert counts[-1] == (0, 0, 100)
        assert counts[1][2] > counts[0][2]

    def test_scheme_mismatch(self):
        pairs = lorenz_pairs(48, n=30)
        fam = DominanceFamily.lorenz(1)
        with pytest.raises(SchemeMismatchError):
            bootstrap_ci(pairs, fam, IND, GridSpec(64), cfg_with())
        data = (Sample(pairs.x1), Sample(pairs.x2))
        with pytest.raises(SchemeMismatchError):
            bootstrap_ci(data, fam, MP, GridSpec(64), cfg_with())

    def test_boundary_flag(self):
        # constant first sample sits on the equality diagonal and dominates
        pairs = PairedSample(
            np.full(12, 5.0), np.array([1.0, 2.0, 3.0] * 4, dtype=float)
        )
        fam = DominanceFamily.lorenz(1)
        result = bootstrap_ci(pairs, fam, MP, GridSpec(100), cfg_with(seed=2, n_boot=40))
        assert result.estimate.c_hat == 0.0
        assert result.boundary
        assert result.ci[0] >= 0.0

    def test_degenerate_resample_skipped_when_opted_in(self):
        pairs = PairedSample(
            np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0, 4.0])
        )
        fam = DominanceFamily.lorenz(1)
        cfg = cfg_with(seed=11, n_boot=50)
        result = bootstrap_ci(pairs, fam, MP, GridSpec(64), cfg)
        assert result.n_boot_effective < 50
        assert result.draws.size == result.n_boot_effective

    def test_interval_width_shrinks_with_n(self):
        dp1, dp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0)
        fam = DominanceFamily.lorenz(1)
        spec = GridSpec(500)
        widths = {}
        for n in (1000, 4000):
            w = []
            for rep in range(30):
                rng = child_rng(49, n, rep)
                pairs = PairedSample(dp1.sample(n, rng), dp2.sample(n, rng))
                cfg = cfg_with(seed=rep, n_boot=100)
                res = bootstrap_ci(pairs, fam, MP, spec, cfg)
                w.append(res.ci[1] - res.ci[0])
            widths[n] = np.median(w)
        assert widths[4000] < widths[1000]


def named_scheme_data():
    rng = np.random.default_rng(1)
    x1, x2 = rng.pareto(3, 200) + 1, rng.pareto(2.2, 200) + 1
    return {MP: PairedSample(x1, x2), IND: (Sample(x1), Sample(x2))}


class TestNamedSchemes:
    """A scheme's value takes the same route as its member."""

    FAM, SPEC = DominanceFamily.lorenz(1), GridSpec(100)
    CFG = InferenceConfig(t_n=1.0, seed=3, n_boot=50)

    def test_bootstrap_ci(self):
        # "matched" once took the independent route: it refused the pairs,
        # and ran the independent analysis on two samples
        data = named_scheme_data()
        for member in (MP, IND):
            named = bootstrap_ci(data[member], self.FAM, member.value, self.SPEC, self.CFG)
            given = bootstrap_ci(data[member], self.FAM, member, self.SPEC, self.CFG)
            assert named.draws.tobytes() == given.draws.tobytes()
            assert named.std.values.tobytes() == given.std.values.tobytes()
            assert (named.ci, named.q_lo, named.q_hi) == (given.ci, given.q_lo, given.q_hi)
        with pytest.raises(SchemeMismatchError):
            bootstrap_ci(data[IND], self.FAM, "matched", self.SPEC, self.CFG)

    def test_tuning(self):
        data = named_scheme_data()
        cal = ([0.1, 1.0, 10.0], 4, 20)
        for member in (MP, IND):
            table = tuning_table(data[member], self.FAM, member, self.SPEC, self.CFG, *cal)
            named = tuning_table(data[member], self.FAM, member.value, self.SPEC, self.CFG, *cal)
            assert named == table
            assert select_tuning(
                data[member], self.FAM, member.value, self.SPEC, self.CFG, *cal
            ) == table.selected
        with pytest.raises(SchemeMismatchError):
            tuning_table(data[IND], self.FAM, "matched", self.SPEC, self.CFG, *cal)

    @pytest.mark.parametrize("family", [
        DominanceFamily.sd(1), DominanceFamily.sd(2), DominanceFamily.lorenz(2),
        DominanceFamily.inverse_sd(3, Direction.DOWN),
    ])
    def test_one_observation_needs_a_second(self, family):
        # the interval's studentization keeps the rule that std_curve_for checks
        single = (Sample([1.0]), Sample([2.0, 3.0, 5.0]))
        with pytest.raises(InvalidConfigError, match="2 observations"):
            spec = GridSpec(10, (0.0, 6.0)) if family.kind is Family.SD else GridSpec(10)
            bootstrap_ci(single, family, IND, spec, self.CFG)


class TestSelectTuning:
    def small_setup(self):
        rng = child_rng(50, 0)
        first = np.where(rng.random(60) < 1 / 8, 0.25, 1.0)
        second = np.where(rng.random(60) < 2 / 3, 0.5, 0.75)
        pairs = PairedSample(first, second)
        fam = DominanceFamily.sd(1)
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        lo = min(pairs.x1.min(), pairs.x2.min())
        hi = max(pairs.x1.max(), pairs.x2.max())
        return pairs, fam, GridSpec(200, (lo, hi))

    def test_single_candidate_returned(self):
        pairs, fam, spec = self.small_setup()
        cfg = cfg_with(seed=1, n_boot=30)
        assert (
            select_tuning(pairs, fam, MP, spec, cfg, [0.25], 3, 20) == 0.25
        )

    def test_empty_candidates(self):
        pairs, fam, spec = self.small_setup()
        with pytest.raises(InvalidConfigError):
            select_tuning(pairs, fam, MP, spec, cfg_with(), [], 5, 20)

    def test_zero_reps(self):
        pairs, fam, spec = self.small_setup()
        with pytest.raises(InvalidConfigError):
            select_tuning(pairs, fam, MP, spec, cfg_with(), [0.1], 0, 20)

    def test_table_shape_and_determinism(self):
        pairs, fam, spec = self.small_setup()
        cfg = cfg_with(seed=21, n_boot=30)
        table1 = tuning_table(pairs, fam, MP, spec, cfg, [0.001, 20.0], 6, 30)
        table2 = tuning_table(pairs, fam, MP, spec, cfg, [20.0, 0.001], 6, 30)
        assert table1.candidates == (0.001, 20.0)
        assert table1 == table2  # candidate order does not matter
        assert all(0.0 <= c <= 1.0 for c in table1.coverage)

    def test_repeated_candidates_counted_once(self):
        pairs, fam, spec = self.small_setup()
        cfg = cfg_with(seed=21, n_boot=30)
        table = tuning_table(pairs, fam, MP, spec, cfg, [1.0, 1.0, 5.0], 4, 20)
        assert table.candidates == (1.0, 5.0)
        assert len(table.coverage) == 2

    def test_bad_settings_are_not_failed_replicates(self):
        # a candidate <= 0 or a one-observation sample is a bad request,
        # raised as such rather than counted as a failed replicate
        pairs, fam, spec = self.small_setup()
        with pytest.raises(InvalidConfigError, match="t_n"):
            tuning_table(pairs, fam, MP, spec, cfg_with(), [0.0, 1.0], 3, 10)
        single = (Sample([1.0]), Sample([2.0, 3.0]))
        with pytest.raises(InvalidConfigError, match="2 observations"):
            tuning_table(
                single, DominanceFamily.lorenz(1), IND, GridSpec(10), cfg_with(), [1.0], 3, 5
            )
        # every replicate of this two-pair sample fails before it reaches the
        # candidates; the bad candidate is still the reported error
        two = PairedSample([1.0, 2.0], [1.0, 3.0])
        with pytest.raises(InvalidConfigError, match="t_n"):
            tuning_table(
                two, DominanceFamily.lorenz(1), MP, GridSpec(4), cfg_with(t_n=1.0, seed=1),
                [-1.0, 1.0], 1, 5,
            )

    def test_parallel_matches_serial(self):
        pairs, fam, spec = self.small_setup()
        cfg = cfg_with(seed=23, n_boot=30)
        candidates = [0.001, 0.5, 20.0]
        serial = tuning_table(pairs, fam, MP, spec, cfg, candidates, 5, 20, n_jobs=1)
        parallel = tuning_table(pairs, fam, MP, spec, cfg, candidates, 5, 20, n_jobs=2)
        assert serial == parallel

    def test_selected_matches_select_tuning(self):
        pairs, fam, spec = self.small_setup()
        cfg = cfg_with(seed=24, n_boot=30)
        candidates = [0.001, 0.5, 20.0]
        table = tuning_table(pairs, fam, MP, spec, cfg, candidates, 6, 20)
        errors = np.abs(np.asarray(table.coverage) - (1.0 - cfg.alpha))
        assert table.selected == table.candidates[int(np.argmin(errors))]
        assert select_tuning(pairs, fam, MP, spec, cfg, candidates, 6, 20) == table.selected

    def test_all_draws_skipped_raises(self):
        # with one draw per calibration bootstrap, replicate 0's draw has a
        # first coordinate of all zeros: it is skipped and leaves no draw for
        # the interval, and no other replicate is left to average
        pairs = PairedSample([0.0, 0.0, 6.0], [1.0, 2.0, 3.0])
        cfg = InferenceConfig(t_n=1, seed=0)
        with pytest.raises(NonFiniteDrawError):
            tuning_table(pairs, DominanceFamily.lorenz(1), MP, GridSpec(50), cfg, [0.1, 1.0], 1, 1)

    def test_degenerate_replicates_are_counted(self):
        # two distinct pairs: a calibration resample that repeats one pair
        # has identical Lorenz curves and no coefficient
        pairs = PairedSample([1.0, 2.0], [2.0, 3.0])
        args = (pairs, DominanceFamily.lorenz(1), MP, GridSpec(20), cfg_with(n_boot=10))
        serial = tuning_table(*args, [0.001, 1.0], 10, 10, n_jobs=1)
        parallel = tuning_table(*args, [0.001, 1.0], 10, 10, n_jobs=2)
        assert serial == parallel
        assert 0 < serial.n_failed < 10
        # each coverage averages the 10 - n_failed replicates that remain
        n_used = 10 - serial.n_failed
        assert all(c * n_used == pytest.approx(round(c * n_used)) for c in serial.coverage)

    def test_tie_breaks_to_smallest(self):
        pairs, fam, spec = self.small_setup()
        cfg = cfg_with(seed=22, n_boot=30)
        # duplicated candidate coverage is identical: the smaller one wins
        selected = select_tuning(pairs, fam, MP, spec, cfg, [0.5, 0.5001], 4, 25)
        table = tuning_table(pairs, fam, MP, spec, cfg, [0.5, 0.5001], 4, 25)
        if table.coverage[0] == table.coverage[1]:
            assert selected == 0.5


@pytest.mark.parametrize(
    "family",
    [
        DominanceFamily.lorenz(1),
        DominanceFamily.lorenz(2),
        DominanceFamily.lorenz(2, Direction.DOWN),
        DominanceFamily.inverse_sd(3),
        DominanceFamily.inverse_sd(3, Direction.DOWN),
    ],
    ids=["lorenz1", "lorenz2", "lorenz2-down", "isd3", "isd3-down"],
)
def test_swapped_pairs_complement(family):
    # Swapping the coordinates negates the difference curve, so it maps the
    # coefficient to its complement, keeps the studentization and, with the
    # same resampled pairs, negates every draw.
    rng = child_rng(47, 0)
    x1 = rng.lognormal(0.0, 0.6, 300)
    # more equal below 1 and less equal above it: the curves cross
    x2 = 0.8 * np.where(x1 < 1.0, x1**0.5, x1**1.5) * rng.lognormal(0.0, 0.2, 300)
    spec = GridSpec(400)
    cfg = InferenceConfig(t_n=1.0, seed=3, n_boot=60)
    base = bootstrap_ci(PairedSample(x1, x2), family, MP, spec, cfg)
    swapped = bootstrap_ci(PairedSample(x2, x1), family, MP, spec, cfg)
    assert abs(swapped.estimate.c_hat - (1.0 - base.estimate.c_hat)) <= 1e-12
    np.testing.assert_allclose(swapped.std.values, base.std.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(swapped.draws, -base.draws, rtol=0, atol=1e-12)
