"""Grid machinery: integration operators, areas, and the area ratio."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from almostdom.calculus import (
    GridFunction,
    GridSpec,
    area_ratio,
    iterated_cumsum,
    negative_area,
    positive_area,
)
from almostdom.coefficients import DominanceFamily
from almostdom.errors import DegenerateCurvesError, InvalidConfigError


def grid_fn(values, n_points=None, domain=(0.0, 1.0)):
    values = np.asarray(values, dtype=float)
    spec = GridSpec(n_points or values.size, domain)
    return GridFunction(spec, values)


def from_callable(f, n_points=1000, domain=(0.0, 1.0)):
    spec = GridSpec(n_points, domain)
    return GridFunction(spec, f(spec.nodes()))


class TestGridSpec:
    def test_nodes_are_midpoints(self):
        spec = GridSpec(4, (0.0, 2.0))
        assert spec.step == 0.5
        np.testing.assert_allclose(spec.nodes(), [0.25, 0.75, 1.25, 1.75])

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(1)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            GridSpec(10, (1.0, 1.0))

    @pytest.mark.parametrize("args", [(1,), (10, (5.0, 1.0)), (10, (0.0, np.inf))])
    def test_bad_spec_is_config_error(self, args):
        with pytest.raises(InvalidConfigError):
            GridSpec(*args)

    @pytest.mark.parametrize("n_points", [1000.5, 7.0, True, "5", None])
    def test_non_integer_point_count(self, n_points):
        with pytest.raises(InvalidConfigError, match="n_points must be an integer"):
            GridSpec(n_points)
        np.testing.assert_array_equal(GridSpec(np.int64(7)).nodes(), GridSpec(7).nodes())


class TestGridFunction:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GridFunction(GridSpec(5), np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GridFunction(GridSpec(3), np.array([1.0, np.nan, 0.0]))

    def test_arithmetic(self):
        f = grid_fn([1.0, 2.0])
        np.testing.assert_allclose((2.0 * f).values, [2.0, 4.0])


def cumsum_up(f, m):
    """The degree-``m`` upward operator: ``m - 1`` prefix-sum passes."""
    return iterated_cumsum(f.values, f.spec.step, m - 1)


def cumsum_down(f, m):
    """The degree-``m`` downward operator: ``m - 1`` suffix-sum passes."""
    return iterated_cumsum(f.values, f.spec.step, m - 1, downward=True)


class TestIntegrateUp:
    def test_degree_one_is_identity(self):
        values = np.sin(GridSpec(100).nodes())
        assert DominanceFamily.lorenz(1).integrate(values, 0.01) is values

    def test_constant_one_gives_p(self):
        f = from_callable(lambda p: np.ones_like(p), 1000)
        result = cumsum_up(f, 2)
        step = f.spec.step
        assert np.max(np.abs(result - f.spec.nodes())) <= step / 2 + 1e-12

    def test_zero_stays_zero(self):
        f = from_callable(np.zeros_like, 200)
        for m in (1, 2, 3, 5):
            assert np.all(cumsum_up(f, m) == 0.0)

    def test_identity_function_triple_integral(self):
        # two passes of p integrate to p**3 / 6
        f = from_callable(lambda p: p, 1000)
        result = cumsum_up(f, 3)
        expected = f.spec.nodes() ** 3 / 6.0
        assert np.max(np.abs(result - expected)) <= 2 * f.spec.step


class TestIntegrateDown:
    def test_constant_one_gives_one_minus_p(self):
        f = from_callable(lambda p: np.ones_like(p), 1000)
        result = cumsum_down(f, 2)
        expected = 1.0 - f.spec.nodes()
        assert np.max(np.abs(result - expected)) <= f.spec.step / 2 + 1e-12

    def test_identity_function(self):
        # suffix integral of p is (1 - p**2) / 2
        f = from_callable(lambda p: p, 1000)
        result = cumsum_down(f, 2)
        expected = (1.0 - f.spec.nodes() ** 2) / 2.0
        assert np.max(np.abs(result - expected)) <= 2 * f.spec.step

    def test_zero_stays_zero(self):
        f = from_callable(np.zeros_like, 50)
        assert np.all(cumsum_down(f, 4) == 0.0)


class TestIteratedCumsum:
    def test_fills_a_separate_out(self):
        values = np.array([1.0, 2.0, 3.0])
        out = np.full(3, np.nan)
        # two prefix-sum passes at step 0.5: [0.5, 1.5, 3.0], then [0.25, 1.0, 2.5]
        assert iterated_cumsum(values, 0.5, 2, out=out) is out
        np.testing.assert_array_equal(out, [0.25, 1.0, 2.5])
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])


class TestLinearity:
    def test_integrate_ops_are_linear(self):
        rng = np.random.default_rng(11)
        spec = GridSpec(300)
        f = GridFunction(spec, rng.normal(size=300))
        g = GridFunction(spec, rng.normal(size=300))
        a, b = 0.7, -2.3
        for op in (cumsum_up, cumsum_down):
            combo = op(GridFunction(spec, a * f.values + b * g.values), 3)
            parts = a * op(f, 3) + b * op(g, 3)
            np.testing.assert_allclose(combo, parts, atol=1e-12)


class TestAreas:
    def test_symmetric_triangle(self):
        f = from_callable(lambda p: p - 0.5, 1000)
        step = f.spec.step
        assert abs(positive_area(f) - 0.125) <= step
        assert abs(negative_area(f) - 0.125) <= step

    def test_constant_negative(self):
        f = from_callable(lambda p: -2.0 * np.ones_like(p), 400)
        assert positive_area(f) == 0.0
        assert abs(negative_area(f) - 2.0) < 1e-12

    def test_sine_lobes(self):
        f = from_callable(lambda p: np.sin(2 * np.pi * p), 1000)
        assert abs(positive_area(f) - 1.0 / np.pi) < 1e-3
        assert abs(negative_area(f) - 1.0 / np.pi) < 1e-3

    def test_split_identity(self):
        rng = np.random.default_rng(5)
        f = grid_fn(rng.normal(size=250))
        total = np.abs(f.values).sum() * f.spec.step
        assert abs(positive_area(f) + negative_area(f) - total) < 1e-12

    def test_midpoint_rule_is_second_order(self):
        # halving the step shrinks the quadrature error at least 3x on p**2
        errors = []
        for n_points in (500, 1000):
            f = from_callable(lambda p: p**2, n_points)
            errors.append(abs(f.values.sum() * f.spec.step - 1.0 / 3.0))
        assert errors[0] / errors[1] >= 3.0


class TestAreaRatio:
    def test_symmetric_is_half(self):
        f = from_callable(lambda p: p - 0.5, 1000)
        assert abs(area_ratio(f) - 0.5) < 1e-9

    def test_nonnegative_is_one(self):
        f = from_callable(lambda p: np.maximum(p - 0.3, 0.0), 1000)
        assert area_ratio(f) == 1.0

    def test_off_center_kink(self):
        # triangle areas 0.75**2/2 and 0.25**2/2 give a 0.9 share
        f = from_callable(lambda p: p - 0.25, 1000)
        assert abs(area_ratio(f) - 0.9) < 1e-4

    def test_degenerate_raises(self):
        f = from_callable(np.zeros_like, 100)
        with pytest.raises(DegenerateCurvesError):
            area_ratio(f)

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100), min_size=2, max_size=50
        ).filter(lambda v: any(x != 0 for x in v))
    )
    @settings(max_examples=60, deadline=None)
    @example([0.0, 5e-324])
    def test_complement_identity(self, values):
        f = grid_fn(values)
        assert abs(area_ratio(f) + area_ratio(grid_fn(-f.values)) - 1.0) < 1e-12

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10), min_size=2, max_size=50
        ).filter(lambda v: any(x != 0 for x in v)),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_homogeneity(self, values, scale):
        # scale * f is a scaled copy of f only while no value of either
        # turns subnormal or zero (0.5 * 5e-324 == 0)
        nonzero = np.abs([x for x in values if x != 0])
        assume(np.all(np.minimum(nonzero, scale * nonzero) >= np.finfo(float).tiny))
        f = grid_fn(values)
        assert abs(area_ratio(scale * f) - area_ratio(f)) < 1e-12
