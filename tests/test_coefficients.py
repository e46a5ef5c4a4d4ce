"""Families, difference curves, coefficients, and rank measures."""

import numpy as np
import pytest

from almostdom.calculus import GridSpec
from almostdom.coefficients import (
    Direction,
    DominanceFamily,
    Family,
    coefficient,
    cubic_preference,
    default_grid,
    difference_curve,
    family_curves,
    rank_measures,
)
from almostdom.empirical import EmpiricalDistribution
from almostdom.errors import (
    DegenerateCurvesError,
    InvalidConfigError,
    InvalidFamilyDegreeError,
)
from almostdom.rng import child_rng

# frequency-matched 24-point samples whose step CDFs equal the two-point laws
# first: 0.25 w.p. 1/2, 1 w.p. 1/2; second: 0.5 w.p. 2/3, 0.75 w.p. 1/3
SD_FIRST = np.repeat([0.25, 1.0], [12, 12])
SD_SECOND = np.repeat([0.5, 0.75], [16, 8])


def sd_samples(beta: int):
    k = 24 // beta
    first = np.repeat([0.25, 1.0], [k, 24 - k])
    return EmpiricalDistribution(first), EmpiricalDistribution(SD_SECOND)


class TestDominanceFamily:
    def test_lorenz_defaults(self):
        fam = DominanceFamily.lorenz()
        assert fam.kind is Family.LORENZ and fam.degree == 1

    def test_lorenz_degree_one_direction_collapses(self):
        fam = DominanceFamily.lorenz(1, Direction.DOWN)
        assert fam.direction is Direction.UP

    def test_sd_ignores_direction(self):
        fam = DominanceFamily(Family.SD, 2, Direction.DOWN)
        assert fam.direction is Direction.UP

    def test_invalid_degrees(self):
        with pytest.raises(InvalidFamilyDegreeError):
            DominanceFamily.lorenz(0)
        with pytest.raises(InvalidFamilyDegreeError):
            DominanceFamily.inverse_sd(1)
        with pytest.raises(InvalidFamilyDegreeError):
            DominanceFamily.inverse_sd(2, Direction.DOWN)

    @pytest.mark.parametrize("degree", [2.0, 1.5, True, "2", None])
    def test_non_integer_degree(self, degree):
        with pytest.raises(InvalidFamilyDegreeError, match="degree must be an integer"):
            DominanceFamily(Family.LORENZ, degree)
        assert DominanceFamily(Family.LORENZ, np.int64(2)) == DominanceFamily.lorenz(2)

    def test_names_give_the_members(self):
        family = DominanceFamily("lorenz", 2, "down")
        assert family.kind is Family.LORENZ and family.direction is Direction.DOWN
        assert family == DominanceFamily.lorenz(2, Direction.DOWN)
        assert DominanceFamily("isd", 3) == DominanceFamily.inverse_sd(3)
        assert DominanceFamily("sd", 2, "down").direction is Direction.UP

    def test_a_named_family_has_the_members_coefficient(self):
        # a direction named "down" once ran the upward family, and a kind
        # named "lorenz" the SD family
        rng = np.random.default_rng(1)
        d1 = EmpiricalDistribution(rng.pareto(3, 400) + 1)
        d2 = EmpiricalDistribution(rng.pareto(2.2, 400) + 1)
        spec = GridSpec(200)
        down = coefficient(DominanceFamily.lorenz(2, Direction.DOWN), d1, d2, spec).c_hat
        assert down != coefficient(DominanceFamily.lorenz(2), d1, d2, spec).c_hat
        for kind in (Family.LORENZ, "lorenz"):
            family = DominanceFamily(kind, 2, "down")
            assert coefficient(family, d1, d2, spec).c_hat == down

    @pytest.mark.parametrize(
        "kind, direction",
        [("foo", "up"), ("LORENZ", "up"), (Direction.UP, "up"), (Family.LORENZ, "sideways"),
         (Family.SD, "Down"), (Family.LORENZ, Family.SD)],
    )
    def test_unknown_names(self, kind, direction):
        with pytest.raises(InvalidFamilyDegreeError, match="must be one of"):
            DominanceFamily(kind, 2, direction)

    def test_operator_degree(self):
        assert DominanceFamily.lorenz(3).operator_degree == 3
        assert DominanceFamily.inverse_sd(3).operator_degree == 2
        assert DominanceFamily.sd(2).operator_degree == 2

    @pytest.mark.parametrize(
        "family, expected",
        [
            (DominanceFamily.lorenz(2), lambda p: p),
            (DominanceFamily.lorenz(2, Direction.DOWN), lambda p: 1.0 - p),
            (DominanceFamily.sd(3), lambda p: p**2 / 2.0),
            (DominanceFamily.inverse_sd(4), lambda p: p**2 / 2.0),
            (DominanceFamily.inverse_sd(4, Direction.DOWN), lambda p: (1.0 - p) ** 2 / 2.0),
        ],
        ids=["lorenz2", "lorenz2down", "sd3", "isd4", "isd4down"],
    )
    def test_integrate_follows_degree_and_direction(self, family, expected):
        # operator_degree - 1 passes over the constant 1, along the given axis
        spec = GridSpec(1000)
        ones = np.ones((spec.n_points, 2))
        ones[:, 1] = 2.0
        result = family.integrate(ones, spec.step, axis=0)
        assert np.max(np.abs(result[:, 0] - expected(spec.nodes()))) <= spec.step
        np.testing.assert_array_equal(result[:, 1], 2.0 * result[:, 0])


class TestDifferenceCurve:
    def test_identical_samples_vanish(self):
        rng = child_rng(10, 0)
        values = rng.exponential(size=30)
        d = EmpiricalDistribution(values)
        spec = GridSpec(500)
        diff = difference_curve(DominanceFamily.lorenz(1), d, d, spec)
        assert np.all(diff.values == 0.0)

    def test_sd_step_difference(self):
        d1, d2 = sd_samples(2)
        spec = GridSpec(1000, (0.0, 1.0))
        diff = difference_curve(DominanceFamily.sd(1), d1, d2, spec)
        nodes = spec.nodes()
        np.testing.assert_allclose(
            diff.values[(nodes > 0.26) & (nodes < 0.49)], 0.5
        )
        np.testing.assert_allclose(
            diff.values[(nodes > 0.51) & (nodes < 0.74)], -1.0 / 6.0
        )
        np.testing.assert_allclose(
            diff.values[(nodes > 0.76) & (nodes < 0.99)], -0.5
        )

    def test_second_degree_upward_sign(self):
        # perfect equality dominates: its Lorenz curve is the diagonal
        equal = EmpiricalDistribution(np.full(16, 3.0))
        rng = child_rng(11, 0)
        other = EmpiricalDistribution(rng.exponential(size=50))
        spec = GridSpec(400)
        diff = difference_curve(DominanceFamily.lorenz(2), equal, other, spec)
        assert np.all(diff.values <= 1e-12)

    def test_lorenz_grid_must_be_unit(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(InvalidConfigError):
            difference_curve(DominanceFamily.lorenz(1), d, d, GridSpec(10, (0, 2)))

    def test_sd_domain_must_cover(self):
        d1, d2 = sd_samples(2)
        with pytest.raises(InvalidConfigError):
            difference_curve(DominanceFamily.sd(1), d1, d2, GridSpec(10, (0.3, 1.0)))

    def test_downward_lorenz_matches_complement_transform(self):
        # the two downward curves share the 1 - L transform, which cancels
        rng = child_rng(12, 0)
        d1 = EmpiricalDistribution(rng.exponential(size=40))
        d2 = EmpiricalDistribution(rng.exponential(size=60))
        spec = GridSpec(300)
        fam = DominanceFamily.lorenz(3, Direction.DOWN)
        diff = difference_curve(fam, d1, d2, spec)
        c1, c2 = family_curves(fam, d1, d2, spec)
        np.testing.assert_allclose(diff.values, c1.values - c2.values, atol=1e-12)

    def test_upward_isd_curves(self):
        rng = child_rng(13, 0)
        d1 = EmpiricalDistribution(rng.exponential(size=40))
        d2 = EmpiricalDistribution(rng.exponential(size=60))
        spec = GridSpec(300)
        fam = DominanceFamily.inverse_sd(3)
        diff = difference_curve(fam, d1, d2, spec)
        c1, c2 = family_curves(fam, d1, d2, spec)
        np.testing.assert_allclose(diff.values, c2.values - c1.values, atol=1e-12)


class TestCoefficient:
    def test_exact_population_sdc(self):
        # step-CDF coefficients of the two-point laws: 3/37, 1/9, 3/17, 3/7
        targets = {8: 3 / 37, 6: 1 / 9, 4: 3 / 17, 2: 3 / 7}
        for beta, target in targets.items():
            d1, d2 = sd_samples(beta)
            spec = GridSpec(1000, (0.0, 1.0))
            est = coefficient(DominanceFamily.sd(1), d1, d2, spec)
            assert abs(est.c_hat - target) < 1e-3, beta

    def test_sdc_grid_refinement(self):
        # refining the grid drives the step-CDF coefficient to the exact ratio
        d1, d2 = sd_samples(2)
        spec = GridSpec(100_000, (0.0, 1.0))
        est = coefficient(DominanceFamily.sd(1), d1, d2, spec)
        assert abs(est.c_hat - 3 / 7) < 1e-6

    def test_identical_samples_degenerate(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateCurvesError):
            coefficient(DominanceFamily.lorenz(1), d, d, GridSpec(100))

    def test_complement_identity(self):
        rng = child_rng(14, 0)
        d1 = EmpiricalDistribution(rng.exponential(size=35))
        d2 = EmpiricalDistribution(rng.gamma(3.0, size=50))
        spec = GridSpec(256)
        families = [
            DominanceFamily.lorenz(1),
            DominanceFamily.lorenz(2),
            DominanceFamily.lorenz(2, Direction.DOWN),
            DominanceFamily.inverse_sd(2),
            DominanceFamily.inverse_sd(3, Direction.DOWN),
        ]
        for fam in families:
            c12 = coefficient(fam, d1, d2, spec).c_hat
            c21 = coefficient(fam, d2, d1, spec).c_hat
            assert abs(c12 + c21 - 1.0) < 1e-12, fam

        sd_spec = default_grid(DominanceFamily.sd(1), d1, d2)
        for m in (1, 2):
            fam = DominanceFamily.sd(m)
            c12 = coefficient(fam, d1, d2, sd_spec).c_hat
            c21 = coefficient(fam, d2, d1, sd_spec).c_hat
            assert abs(c12 + c21 - 1.0) < 1e-12, fam

    def test_lorenz_scale_invariance(self):
        rng = child_rng(15, 0)
        v1 = rng.exponential(size=45)
        v2 = rng.gamma(2.0, size=30)
        spec = GridSpec(512)
        fam = DominanceFamily.lorenz(2)
        base = coefficient(
            fam, EmpiricalDistribution(v1), EmpiricalDistribution(v2), spec
        ).c_hat
        for c1, c2 in ((13.0, 1.0), (1.0, 0.004), (250.0, 3.5)):
            scaled = coefficient(
                fam,
                EmpiricalDistribution(c1 * v1),
                EmpiricalDistribution(c2 * v2),
                spec,
            ).c_hat
            assert abs(scaled - base) < 1e-10

    def test_estimate_metadata(self):
        rng = child_rng(16, 0)
        d1 = EmpiricalDistribution(rng.exponential(size=40))
        d2 = EmpiricalDistribution(rng.exponential(size=10))
        est = coefficient(DominanceFamily.lorenz(1), d1, d2, GridSpec(128))
        assert est.n1 == 40 and est.n2 == 10
        assert est.effective_n == pytest.approx(400 / 50)
        assert est.size_share == pytest.approx(0.8)
        assert est.c_hat == pytest.approx(
            est.pos_area / (est.pos_area + est.neg_area)
        )


class TestDefaultGrid:
    def test_unit_interval_for_rank_families(self):
        d = EmpiricalDistribution([1.0, 2.0])
        spec = default_grid(DominanceFamily.lorenz(1), d, d, 64)
        assert spec.domain == (0.0, 1.0) and spec.n_points == 64

    def test_pooled_hull_for_sd(self):
        d1 = EmpiricalDistribution([-1.0, 2.0])
        d2 = EmpiricalDistribution([0.0, 5.0])
        spec = default_grid(DominanceFamily.sd(1), d1, d2)
        assert spec.domain == (-1.0, 5.0)


class TestRankMeasures:
    def test_constant_sample(self):
        dist = EmpiricalDistribution(np.full(9, 7.0))
        result = rank_measures(dist, cubic_preference(), GridSpec(1000))
        assert abs(result.welfare - 7.0) < 1e-3
        assert abs(result.inequality) < 1e-3
        assert result.mean == 7.0

    @pytest.mark.parametrize("n_points", [2, 10, 1000])
    def test_constant_sample_inequality_is_quadrature_error(self, n_points):
        # the cubic weights' midpoint sum is 1 - 1/(4 G**2), not 1
        dist = EmpiricalDistribution(np.full(5, 3.0))
        result = rank_measures(dist, cubic_preference(), GridSpec(n_points))
        eps = np.finfo(float).eps
        assert abs(result.inequality - 1.0 / (4 * n_points**2)) <= 4 * eps

    def test_flat_weight_gives_mean(self):
        from almostdom.coefficients import PreferenceFunction

        flat = PreferenceFunction(weight=np.ones_like, name="flat")
        rng = child_rng(17, 0)
        dist = EmpiricalDistribution(rng.exponential(size=100))
        result = rank_measures(dist, flat, GridSpec(2000))
        assert abs(result.welfare - dist.mean) < 2e-3 * dist.mean
        assert abs(result.inequality) < 2e-3

    def test_two_point_closed_form(self):
        # all weight mass above rank 1/2 hits the larger value:
        # welfare = 2 * integral_{1/2}^{1} 3(1-t)^2 dt = 1/4
        dist = EmpiricalDistribution([0.0, 2.0])
        result = rank_measures(dist, cubic_preference(), GridSpec(1000))
        assert abs(result.welfare - 0.25) < 1e-4
        assert abs(result.inequality - 0.75) < 1e-4

    def test_welfare_identity(self):
        rng = child_rng(18, 0)
        dist = EmpiricalDistribution(rng.pareto(2.5, size=200) + 1.0)
        result = rank_measures(dist, cubic_preference(), GridSpec(777))
        assert abs(result.welfare - result.mean * (1 - result.inequality)) < 1e-12
