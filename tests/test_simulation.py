"""DGPs, population oracles, and the Monte Carlo driver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from almostdom import simulation
from almostdom.cli import PRESETS
from almostdom.calculus import GridSpec
from almostdom.coefficients import (
    Direction,
    DominanceFamily,
    coefficient,
    default_grid,
    difference_curve,
    family_curves,
)
from almostdom.empirical import EmpiricalDistribution, SamplingScheme
from almostdom.errors import (
    DegenerateCurvesError,
    DomainError,
    InvalidConfigError,
    NonFiniteDrawError,
)
from almostdom.inference import InferenceConfig
from almostdom.rng import child_rng
from almostdom.simulation import (
    DiscreteLaw,
    DoublePareto,
    MonteCarloStudy,
    monte_carlo,
    population_coefficient,
    population_curves,
    run_replicates,
)

MP = SamplingScheme.MATCHED


def sdc_laws(beta):
    first = DiscreteLaw([(0.25, 1 / beta), (1.0, 1 - 1 / beta)])
    second = DiscreteLaw([(0.5, 2 / 3), (0.75, 1 / 3)])
    return first, second


class TestDoublePareto:
    @pytest.mark.parametrize("alpha,beta", [(3.0, 1.5), (2.1, 2.0), (6.0, 0.8)])
    def test_cdf_matches_density_quadrature(self, alpha, beta):
        dp = DoublePareto(alpha, beta) if alpha > 2 else None
        if dp is None:
            with pytest.warns(UserWarning):
                dp = DoublePareto(alpha, beta)
        for x in (0.2, 0.7, 1.0, 1.8, 6.3):
            integral, _ = quad(
                dp.density,
                0.0,
                x,
                points=[min(1.0, x)],
                limit=200,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert dp.cdf(x) == pytest.approx(integral, abs=1e-10)

    def test_density_integrates_to_one(self):
        dp = DoublePareto(3.0, 1.5)
        body, _ = quad(dp.density, 0.0, 1.0, limit=200)
        tail, _ = quad(dp.density, 1.0, np.inf, limit=200)
        assert body + tail == pytest.approx(1.0, abs=1e-10)

    def test_quantile_at_junction(self):
        dp = DoublePareto(3.0, 1.5)
        assert dp.quantile(3.0 / 4.5) == pytest.approx(1.0)
        assert dp.quantile(2.0 / 3.0) == pytest.approx(1.0)

    def test_quantile_roundtrip(self):
        dp = DoublePareto(2.1, 2.0)
        rng = child_rng(60, 0)
        for p in rng.random(100):
            if not 0 < p < 1:
                continue
            assert dp.cdf(dp.quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_quantile_strictly_increasing(self):
        dp = DoublePareto(3.0, 1.5)
        p = np.sort(child_rng(61, 0).random(500))
        p = p[(p > 0) & (p < 1)]
        q = dp.quantile(p)
        assert np.all(np.diff(q) > 0)

    def test_quantile_domain(self):
        dp = DoublePareto(3.0, 1.5)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                dp.quantile(p)

    def test_mean_matches_quantile_integral(self):
        dp = DoublePareto(3.0, 1.5)
        p = (np.arange(1_000_000) + 0.5) / 1_000_000
        assert dp.mean() == pytest.approx(dp.quantile(p).mean(), rel=1e-4)

    def test_cum_quantile_consistency(self):
        dp = DoublePareto(2.1, 3.0)
        assert dp.cum_quantile(1.0) == pytest.approx(dp.mean(), rel=1e-12)
        # closed form vs fine rectangle sums of the quantile
        for p_top in (0.3, 2 / 3, 0.95):
            grid = (np.arange(200_000) + 0.5) / 200_000 * p_top
            riemann = dp.quantile(grid).mean() * p_top
            assert dp.cum_quantile(p_top) == pytest.approx(riemann, rel=1e-4)

    def test_heavy_tail_warns(self):
        with pytest.warns(UserWarning):
            DoublePareto(1.9, 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DoublePareto(-1.0, 2.0)


class TestDiscreteLaw:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            DiscreteLaw([(1.0, 0.4), (2.0, 0.5)])
        with pytest.raises(ValueError):
            DiscreteLaw([(1.0, -0.5), (2.0, 1.5)])

    def test_cdf_and_quantile(self):
        law = DiscreteLaw([(0.25, 0.5), (1.0, 0.5)])
        assert law.cdf(0.1) == 0.0
        assert law.cdf(0.25) == 0.5
        assert law.cdf(1.0) == 1.0
        assert law.quantile(0.3) == 0.25
        assert law.quantile(0.5) == 0.25
        assert law.quantile(0.51) == 1.0
        assert law.mean() == pytest.approx(0.625)

    def test_single_atom_sampling(self):
        law = DiscreteLaw([(5.0, 1.0)])
        np.testing.assert_array_equal(law.sample(3, child_rng(62, 0)), [5.0, 5.0, 5.0])


class TestSampleDgp:
    """Draws through a law's own ``sample(n, rng)``."""

    def test_seeded_repeat_identical(self):
        dp = DoublePareto(3.0, 1.5)
        a = dp.sample(50, child_rng(63, 0))
        b = dp.sample(50, child_rng(63, 0))
        np.testing.assert_array_equal(a, b)

    def test_kolmogorov_distance(self):
        dp = DoublePareto(3.0, 1.5)
        n = 1_000_000
        values = np.sort(dp.sample(n, child_rng(64, 0)))
        cdf_at_points = dp.cdf(values)
        grid = np.arange(1, n + 1) / n
        distance = max(
            np.max(np.abs(cdf_at_points - grid)),
            np.max(np.abs(cdf_at_points - (grid - 1 / n))),
        )
        assert distance < 0.002


def step_sdc_by_unique(dgp1, dgp2):
    """The step-CDF oracle as it read when np.unique cut the pooled support."""
    lo = min(dgp1.values[0], dgp2.values[0])
    hi = max(dgp1.values[-1], dgp2.values[-1])
    cuts = np.unique(np.concatenate((dgp1.values, dgp2.values, [lo, hi])))
    pos = neg = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        diff = dgp1.cdf(left) - dgp2.cdf(left)
        if diff > 0:
            pos += diff * (right - left)
        else:
            neg += -diff * (right - left)
    if pos + neg == 0.0:
        raise DegenerateCurvesError("step CDFs coincide")
    return pos / (pos + neg)


def step_sdc_trace(oracle, atoms1, atoms2):
    """The bytes of the segment starts ``oracle`` reads the first CDF at, and
    of its coefficient (None where the CDFs coincide)."""
    first, second = DiscreteLaw(atoms1), DiscreteLaw(atoms2)
    lefts, cdf = [], first.cdf
    first.cdf = lambda x: lefts.append(x) or cdf(x)
    try:
        value = np.float64(oracle(first, second)).tobytes()
    except DegenerateCurvesError:
        value = None
    return np.array(lefts, dtype=float).tobytes(), value


# support points with repeats and both signed zeros; the pooled support's
# ends are support points
support_atoms = st.lists(
    st.tuples(
        st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -1.5]) | st.floats(-4.0, 4.0),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=6,
).map(lambda atoms: [(v, w / sum(c for _, c in atoms)) for v, w in atoms])


class TestPopulationCoefficient:
    def test_exact_sdc_fractions(self):
        # hand-derived piecewise values of the step-CDF area ratio
        targets = {8: 3 / 37, 6: 1 / 9, 4: 3 / 17, 2: 3 / 7}
        for beta, target in targets.items():
            first, second = sdc_laws(beta)
            value = population_coefficient(first, second, DominanceFamily.sd(1))
            assert value == pytest.approx(target, abs=1e-12)

    # recorded while np.unique cut the pooled support
    @pytest.mark.parametrize(
        "preset, bits", [("sdc-a", "0x1.4c1bacf914c1cp-4"), ("sdc-b", "0x1.c71c71c71c71bp-4")]
    )
    def test_exact_sdc_presets_are_unchanged(self, preset, bits):
        laws = PRESETS[preset]
        value = population_coefficient(laws["dgp1"], laws["dgp2"], laws["family"])
        assert value.hex() == bits

    @settings(max_examples=300, deadline=None)
    @given(atoms1=support_atoms, atoms2=support_atoms)
    def test_exact_sdc_matches_np_unique(self, atoms1, atoms2):
        want = step_sdc_trace(step_sdc_by_unique, atoms1, atoms2)
        assert step_sdc_trace(simulation._exact_step_sdc, atoms1, atoms2) == want

    def test_complement_identity(self):
        dp1, dp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0)
        for fam in (
            DominanceFamily.lorenz(1),
            DominanceFamily.lorenz(2, Direction.DOWN),
            DominanceFamily.inverse_sd(3),
        ):
            c12 = population_coefficient(dp1, dp2, fam, resolution=20_000)
            c21 = population_coefficient(dp2, dp1, fam, resolution=20_000)
            assert abs(c12 + c21 - 1.0) < 1e-6

    def test_sd_needs_bounded_support(self):
        dp = DoublePareto(3.0, 1.5)
        with pytest.raises(InvalidConfigError):
            population_coefficient(dp, dp, DominanceFamily.sd(1))

    def test_identical_laws_degenerate(self):
        law, _ = sdc_laws(2)
        with pytest.raises(DegenerateCurvesError):
            population_coefficient(law, law, DominanceFamily.sd(1))

    def test_sd_higher_degree_grid_path(self):
        first, second = sdc_laws(2)
        value = population_coefficient(first, second, DominanceFamily.sd(2))
        assert 0.0 <= value <= 1.0

    def test_base_curves_read_at_the_nodes(self):
        # the ISD 2 curve is the quantile integrated up to each midpoint node;
        # the tolerance was fixed before the first run: prefix sums that stop
        # at the right edge of each cell miss by 1.4e-2, the nodes by 1.7e-3
        law = DoublePareto(2.1, 1.5)
        spec, curve1, _, _ = population_curves(
            law, DoublePareto(200.0, 2.2), DominanceFamily.inverse_sd(2), 1000
        )
        assert np.abs(curve1 - law.cum_quantile(spec.nodes())).max() <= 5e-3


# Fit and oracle curves on the same laws and grid: seed 30, 2e5 draws per
# law, G = 1000, and a tolerance of 0.05 of the oracle curves' largest
# magnitude, all fixed before the first run. Sampling error and the
# oracle's midpoint sums leave at most 0.006 of it (Lorenz 3 up);
# comparing the downward Lorenz complements 1 - L with L itself misses by
# 0.33 of 0.67.
CURVE_LAWS = {
    "lorenz": (DoublePareto(3.0, 1.5), DoublePareto(2.1, 2.0)),
    "isd": (DoublePareto(2.1, 1.5), DoublePareto(200.0, 2.2)),
    "sd": sdc_laws(2),
}
CURVE_FAMILIES = [
    DominanceFamily.lorenz(1),
    DominanceFamily.lorenz(2),
    DominanceFamily.lorenz(2, Direction.DOWN),
    DominanceFamily.lorenz(3),
    DominanceFamily.lorenz(3, Direction.DOWN),
    DominanceFamily.inverse_sd(2),
    DominanceFamily.inverse_sd(3),
    DominanceFamily.inverse_sd(3, Direction.DOWN),
    DominanceFamily.sd(1),
    DominanceFamily.sd(2),
]


@pytest.fixture(scope="module")
def curve_samples():
    rng = child_rng(30, 0)
    return {
        kind: [EmpiricalDistribution(law.sample(200_000, rng)) for law in laws]
        for kind, laws in CURVE_LAWS.items()
    }


class TestEstimatorConsistency:
    def test_large_sample_tracks_population_value(self):
        # one seeded 100k draw of the heavy-tailed pair lands close to the
        # population coefficient 0.04703
        dp1, dp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 2.0)
        rng = child_rng(1, 0)
        d1 = EmpiricalDistribution(dp1.sample(100_000, rng))
        d2 = EmpiricalDistribution(dp2.sample(100_000, rng))
        c_hat = coefficient(DominanceFamily.lorenz(1), d1, d2, GridSpec(1000)).c_hat
        assert abs(c_hat - 0.04703) < 0.01

    @pytest.mark.parametrize(
        "family",
        CURVE_FAMILIES,
        ids=lambda f: f"{f.kind.value}{f.degree}-{f.direction.value}",
    )
    def test_fit_and_oracle_curves_agree(self, family, curve_samples):
        d1, d2 = curve_samples[family.kind.value]
        spec = default_grid(family, d1, d2, 1000)
        fit = [curve.values for curve in family_curves(family, d1, d2, spec)]
        fit.append(difference_curve(family, d1, d2, spec).values)
        laws = CURVE_LAWS[family.kind.value]
        oracle_spec, *oracle = population_curves(*laws, family, spec.n_points)
        assert oracle_spec == spec
        scale = max(np.abs(oracle[0]).max(), np.abs(oracle[1]).max())
        for name, got, want in zip(("curve1", "curve2", "diff"), fit, oracle):
            assert np.abs(got - want).max() <= 0.05 * scale, name


# Coverage of the oracle's truth beyond SD 1 and Lorenz 1 (acceptance tests
# 04 and 05). Window, seed and sizes were fixed before the first run: the
# share of intervals covering the truth lies within 0.10 of the nominal 0.95
# (about five Monte Carlo standard errors of 0.021 over 200 replicates,
# which also absorbs the shortfall at n = 2000), or above it.
@pytest.mark.parametrize(
    "preset, family",
    [("uisdc-a", DominanceFamily.inverse_sd(3)), ("ldc-a", DominanceFamily.lorenz(2))],
    ids=["isd3-up", "lorenz2-up"],
)
def test_coverage_against_the_oracle(preset, family):
    laws = PRESETS[preset]["dgp1"], PRESETS[preset]["dgp2"]
    study = MonteCarloStudy(
        *laws, family=family, scheme=SamplingScheme.INDEPENDENT, sizes=(2000, 2000),
        cfg=InferenceConfig(t_n=0.001, seed=11, n_boot=200), n_reps=200,
        true_c=population_coefficient(*laws, family),
    )
    report = monte_carlo(study, n_jobs=1)
    assert 0.85 <= report.cr <= 1.0, (report.cr, report.cr_se)


class TestMonteCarlo:
    def study(self, n_reps, seed=77, n=60, boot=40):
        first, second = sdc_laws(4)
        cfg = InferenceConfig(t_n=0.001, seed=seed, n_boot=boot)
        return MonteCarloStudy(
            dgp1=first,
            dgp2=second,
            family=DominanceFamily.sd(1),
            scheme=MP,
            sizes=(n, n),
            cfg=cfg,
            n_reps=n_reps,
            true_c=population_coefficient(first, second, DominanceFamily.sd(1)),
            grid_points=200,
        )

    @pytest.mark.parametrize("n_reps", [2.5, 3.0, True, "3", 0])
    def test_bad_rep_count(self, n_reps):
        with pytest.raises(InvalidConfigError, match="n_reps"):
            self.study(n_reps)

    def test_numpy_integer_rep_count(self):
        got, want = run_replicates(self.study(np.int64(3))), run_replicates(self.study(3))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_single_rep_report(self):
        study = self.study(1)
        report = monte_carlo(study)
        estimates, covered = run_replicates(study)
        assert report.mean == estimates[0]
        assert report.se == 0.0
        assert report.cr in (0.0, 1.0)
        assert report.cr == float(covered[0])

    def test_prefix_stability(self):
        short = self.study(5)
        long = self.study(10)
        est_short, cov_short = run_replicates(short)
        est_long, cov_long = run_replicates(long)
        np.testing.assert_array_equal(est_short, est_long[:5])
        np.testing.assert_array_equal(cov_short, cov_long[:5])

    def test_parallel_matches_serial(self):
        study = self.study(6)
        est_serial, cov_serial = run_replicates(study, n_jobs=1)
        est_par, cov_par = run_replicates(study, n_jobs=2)
        np.testing.assert_array_equal(est_serial, est_par)
        np.testing.assert_array_equal(cov_serial, cov_par)

    def test_error_decomposition(self):
        report = monte_carlo(self.study(12))
        assert report.rmse**2 == pytest.approx(
            report.bias**2 + report.se**2, abs=1e-9
        )

    def test_coverage_standard_error(self):
        report = monte_carlo(self.study(12, n=30, boot=20))
        assert 0.0 < report.cr < 1.0
        assert report.cr_se == np.sqrt(report.cr * (1.0 - report.cr) / 12)
        assert report.n_failed == 0

    def test_failed_replicates_are_counted(self):
        # the first sample is often all zeros: a Lorenz curve of mean 0
        study = MonteCarloStudy(
            DiscreteLaw([(0.0, 0.8), (1.0, 0.2)]),
            DiscreteLaw([(1.0, 0.5), (2.0, 0.5)]),
            DominanceFamily.lorenz(1),
            MP,
            (6, 6),
            InferenceConfig(t_n=1, seed=0, n_boot=20),
            20,
            0.3,
            50,
        )
        estimates, covered = run_replicates(study)
        failed = np.isnan(estimates)
        assert 0 < failed.sum() < study.n_reps
        assert not covered[failed].any()
        report = monte_carlo(study)
        assert report.n_failed == failed.sum()
        assert report.mean == np.mean(estimates[~failed])
        assert report.cr == np.mean(covered[~failed])
        assert monte_carlo(study, n_jobs=2) == report

    def test_single_point_sd_samples_are_counted(self):
        # at n = 3 both samples are often all ones: a pooled sample with no
        # SD domain
        study = MonteCarloStudy(
            DiscreteLaw([(1.0, 0.9), (2.0, 0.1)]),
            DiscreteLaw([(1.0, 0.8), (3.0, 0.2)]),
            DominanceFamily.sd(1),
            MP,
            (3, 3),
            InferenceConfig(t_n=1, seed=0, n_boot=20),
            20,
            0.3,
            50,
        )
        report = monte_carlo(study)
        assert 0 < report.n_failed < study.n_reps
        assert monte_carlo(study, n_jobs=2) == report

    def test_unusable_resamples_do_not_fail_a_replicate(self):
        # a resample of six draws from {0 (.8), 1 (.2)} is often all zeros, with
        # no Lorenz curve: it gives no draw, and the replicate fails only when
        # no draw is left or its own data have no estimate
        study = MonteCarloStudy(
            DiscreteLaw([(0.0, 0.8), (1.0, 0.2)]),
            DiscreteLaw([(1.0, 0.5), (2.0, 0.5)]),
            DominanceFamily.lorenz(1),
            MP,
            (6, 6),
            InferenceConfig(t_n=1, seed=0, n_boot=50),
            20,
            0.3,
            50,
        )
        report = monte_carlo(study)
        assert report.n_failed == 3
        assert monte_carlo(study, n_jobs=2) == report

    def test_every_replicate_failing_raises(self):
        study = MonteCarloStudy(
            DiscreteLaw([(0.0, 0.999), (1.0, 0.001)]),
            DiscreteLaw([(1.0, 0.5), (2.0, 0.5)]),
            DominanceFamily.lorenz(1),
            MP,
            (3, 3),
            InferenceConfig(t_n=1, seed=0, n_boot=5),
            3,
            0.3,
            20,
        )
        with pytest.raises(NonFiniteDrawError):
            monte_carlo(study)

    @pytest.mark.parametrize("sizes", [(10.5, 10), (60, 60.0), (True, 60), ("60", 60)])
    def test_non_integer_sizes(self, sizes):
        with pytest.raises(InvalidConfigError, match="sizes must be an integer"):
            replace(self.study(2), scheme=SamplingScheme.INDEPENDENT, sizes=sizes)

    @pytest.mark.parametrize("grid_points", [50.5, 200.0, True, "200", None])
    def test_non_integer_grid_points(self, grid_points):
        with pytest.raises(InvalidConfigError, match="grid_points must be an integer"):
            replace(self.study(2), grid_points=grid_points)

    def test_needs_two_grid_points(self):
        # a one-point grid is a bad study, not a replicate that failed
        with pytest.raises(InvalidConfigError, match="grid_points"):
            replace(self.study(2), grid_points=1)

    def test_a_named_scheme_runs_its_study(self):
        # "matched" once ran the independent study, whose coverage differs here
        preset = PRESETS["ldc-a"]
        laws, family = (preset["dgp1"], preset["dgp2"]), preset["family"]
        cfg = InferenceConfig(t_n=0.001, seed=3, n_boot=20)
        true_c = population_coefficient(*laws, family)
        study = MonteCarloStudy(*laws, family, MP, (60, 60), cfg, 10, true_c, 100)
        named = replace(study, scheme="matched")
        assert named.scheme is MP
        assert monte_carlo(named) == monte_carlo(study)
        independent = replace(study, scheme=SamplingScheme.INDEPENDENT)
        assert replace(study, scheme="independent") == independent
        assert monte_carlo(independent).cr != monte_carlo(study).cr

    @pytest.mark.parametrize("scheme", ["paired", "MATCHED", None, DominanceFamily.sd(1)])
    def test_unknown_scheme(self, scheme):
        with pytest.raises(InvalidConfigError, match="SamplingScheme must be one of"):
            replace(self.study(2), scheme=scheme)

    def test_matched_needs_equal_sizes(self):
        first, second = sdc_laws(2)
        cfg = InferenceConfig(t_n=0.1, seed=0)
        with pytest.raises(InvalidConfigError):
            MonteCarloStudy(
                dgp1=first,
                dgp2=second,
                family=DominanceFamily.sd(1),
                scheme=MP,
                sizes=(10, 20),
                cfg=cfg,
                n_reps=2,
                true_c=0.4,
            )
