"""Data-generating processes, population oracles, and the Monte Carlo driver.

The population coefficient oracle evaluates analytic quantile/CDF
functions on its own high-resolution midpoint grid and runs plain prefix
or suffix rectangle sums, independently of the estimator path in
:mod:`almostdom.coefficients`. Population Lorenz curves are normalized by
the analytic mean (not the grid integral of the quantile): with heavy
tails the grid integral under-counts the mass hiding beyond the last
midpoint, and dividing by it would tilt the whole curve by that deficit.

Matched-pair datasets are simulated with independent coordinates (the
product copula), which satisfies the maximal-correlation condition the
matched-pairs theory needs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calculus import GridFunction, GridSpec, _count, _integer, _member, _pair, _real, area_ratio
from .coefficients import Direction, DominanceFamily, Family, default_grid
from .empirical import PairedSample, SamplingScheme
from .errors import DegenerateCurvesError, DomainError, InvalidConfigError, NonFiniteDrawError
from .inference import InferenceConfig, _coverage_study, _distributions

__all__ = [
    "DoublePareto",
    "DiscreteLaw",
    "population_coefficient",
    "population_curves",
    "MonteCarloStudy",
    "MonteCarloReport",
    "run_replicates",
    "monte_carlo",
]


class DoublePareto:
    """Double Pareto law with scale ``m_scale`` and shape parameters alpha, beta.

    The density rises like ``x**(beta-1)`` below the scale point and
    decays like ``x**(-alpha-1)`` above it. Closed forms used here
    (derived by integrating the density; unit-tested against quadrature):

    * CDF: ``(alpha/(alpha+beta)) * (x/M)**beta`` below M, and
      ``1 - (beta/(alpha+beta)) * (M/x)**alpha`` above.
    * Mean (alpha > 1):
      ``M * alpha*beta/(alpha+beta) * (1/(beta+1) + 1/(alpha-1))``.

    The square-root asymptotics of the estimators need a finite variance,
    i.e. alpha > 2; the constructor warns below that.
    """

    def __init__(self, alpha: float, beta: float, m_scale: float = 1.0):
        params = (_real("alpha", alpha), _real("beta", beta), _real("m_scale", m_scale))
        if not all(0 < v < np.inf for v in params):
            raise InvalidConfigError("alpha, beta, and the scale must be positive and finite")
        if alpha <= 2:
            warnings.warn(
                f"alpha={alpha} <= 2: infinite variance, estimator asymptotics "
                "are not guaranteed",
                stacklevel=2,
            )
        self.alpha, self.beta, self.m_scale = params
        # mass below the scale point; the quantile branches split here
        self._junction = self.alpha / (self.alpha + self.beta)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DoublePareto(alpha={self.alpha}, beta={self.beta})"

    def density(self, x):
        x = np.asarray(x, dtype=float)
        a, b, m = self.alpha, self.beta, self.m_scale
        core = a * b / (a + b)
        out = np.zeros_like(x)
        lower = (x > 0) & (x < m)
        upper = x >= m
        out[lower] = core * m ** (-b) * x[lower] ** (b - 1.0)
        out[upper] = core * m**a * x[upper] ** (-a - 1.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        a, b, m = self.alpha, self.beta, self.m_scale
        out = np.zeros_like(x)
        lower = (x > 0) & (x < m)
        upper = x >= m
        out[lower] = self._junction * (x[lower] / m) ** b
        out[upper] = 1.0 - (1.0 - self._junction) * (m / x[upper]) ** a
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Inverse CDF on (0, 1)."""
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("double Pareto quantile needs p in (0, 1)")
        out = self._quantile_unchecked(p)
        return out if out.ndim else float(out)

    def _quantile_unchecked(self, p: np.ndarray) -> np.ndarray:
        pj, a, b, m = self._junction, self.alpha, self.beta, self.m_scale
        below = m * (np.minimum(p, pj) / pj) ** (1.0 / b)
        above = m * ((1.0 - np.maximum(p, pj)) / (1.0 - pj)) ** (-1.0 / a)
        return np.where(p <= pj, below, above)

    def mean(self) -> float:
        a, b, m = self.alpha, self.beta, self.m_scale
        if a <= 1:
            return float("inf")
        return m * a * b / (a + b) * (1.0 / (b + 1.0) + 1.0 / (a - 1.0))

    def cum_quantile(self, p):
        """Analytic integral of the quantile from 0 to p (finite mean needed)."""
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise DomainError("probabilities must lie in [0, 1]")
        pj, a, b, m = self._junction, self.alpha, self.beta, self.m_scale
        if a <= 1:
            raise DomainError("integrated quantile diverges for alpha <= 1")
        # below the junction: integral of M (t/pj)^(1/b)
        lo = m * pj / (1.0 / b + 1.0) * (np.minimum(p, pj) / pj) ** (1.0 / b + 1.0)
        lo_full = m * pj / (1.0 / b + 1.0)
        # above: integral of M ((1-t)/(1-pj))^(-1/a)
        u = (1.0 - np.maximum(p, pj)) / (1.0 - pj)
        hi = m * (1.0 - pj) / (1.0 - 1.0 / a) * (1.0 - u ** (1.0 - 1.0 / a))
        out = np.where(p <= pj, lo, lo_full + hi)
        return out if out.ndim else float(out)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._quantile_unchecked(rng.random(n))


class DiscreteLaw:
    """A finitely supported law given as (value, probability) atoms."""

    def __init__(self, atoms):
        try:
            pairs = sorted(_pair("atom", atom, _real) for atom in atoms)
        except TypeError:  # atoms cannot be iterated
            raise InvalidConfigError(f"atoms must be pairs, got {atoms!r}") from None
        values, probs = np.array(pairs, dtype=float).reshape(-1, 2).T.copy()
        if not np.all(np.isfinite(values)):
            raise InvalidConfigError("atom values must be finite")
        if not np.all(probs > 0.0):
            raise InvalidConfigError("atom probabilities must be positive")
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise InvalidConfigError(f"atom probabilities sum to {probs.sum()!r}, not 1")
        values.flags.writeable = probs.flags.writeable = False
        self.values = values
        self.probs = probs
        self._cum = np.cumsum(probs)

    def __repr__(self) -> str:  # pragma: no cover
        atoms = ", ".join(f"({v:g}, {w:g})" for v, w in zip(self.values, self.probs))
        return f"DiscreteLaw([{atoms}])"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        out = np.concatenate(([0.0], self._cum))[idx]
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise DomainError("discrete quantile needs p in (0, 1)")
        idx = np.searchsorted(self._cum, p, side="left")
        out = self.values[np.minimum(idx, self.values.size - 1)]
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(np.sum(self.values * self.probs))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.values, size=n, p=self.probs)


def _iterate(values: np.ndarray, step: float, passes: int, downward: bool) -> np.ndarray:
    for _ in range(passes):
        if downward:
            values = np.cumsum(values[::-1])[::-1] * step
        else:
            values = np.cumsum(values) * step
    return values


def _pooled_support(dgp1, dgp2) -> tuple[float, float]:
    if not (isinstance(dgp1, DiscreteLaw) and isinstance(dgp2, DiscreteLaw)):
        raise InvalidConfigError(
            "population SD coefficients need bounded support; supply discrete laws"
        )
    return min(dgp1.values[0], dgp2.values[0]), max(dgp1.values[-1], dgp2.values[-1])


def _exact_step_sdc(dgp1: DiscreteLaw, dgp2: DiscreteLaw) -> float:
    """First-degree coefficient of two step CDFs, computed segment by segment."""
    lo, hi = _pooled_support(dgp1, dgp2)
    points = np.sort(np.concatenate((dgp1.values, dgp2.values, [lo, hi])))
    cuts = points[np.append(True, points[1:] != points[:-1])]  # np.unique loads numpy.ma
    pos = neg = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        diff = dgp1.cdf(left) - dgp2.cdf(left)  # constant on [left, right)
        if diff > 0:
            pos += diff * (right - left)
        else:
            neg += -diff * (right - left)
    if pos + neg == 0.0:
        raise DegenerateCurvesError("step CDFs coincide")
    return pos / (pos + neg)


def population_curves(
    dgp1, dgp2, family: DominanceFamily, n_points: int
) -> tuple[GridSpec, np.ndarray, np.ndarray, np.ndarray]:
    """``(spec, curve1, curve2, diff)``: the oracle's curves on ``n_points`` nodes.

    Rank-based families integrate the quantiles on [0, 1] (Lorenz curves
    over the analytic mean); the SD family takes the CDFs of two discrete
    laws on their pooled support. As in the fit, each curve is its base
    curve as :meth:`DominanceFamily.compared` gives it (``1 - L`` for
    downward Lorenz), and ``diff`` is integrated from the base curves as
    :meth:`DominanceFamily.orient` combines them.
    """
    passes = family.operator_degree - 1
    down = family.direction is Direction.DOWN
    if family.kind is Family.SD:
        spec = GridSpec(n_points, _pooled_support(dgp1, dgp2))
        base1, base2 = dgp1.cdf(spec.nodes()), dgp2.cdf(spec.nodes())
        base = family.orient(base1, base2)
    else:
        spec = GridSpec(n_points, (0.0, 1.0))
        q1 = np.asarray(dgp1.quantile(spec.nodes()), dtype=float)
        q2 = np.asarray(dgp2.quantile(spec.nodes()), dtype=float)
        base1 = np.cumsum(q1) * spec.step
        base2 = np.cumsum(q2) * spec.step
        if family.kind is Family.LORENZ:
            base1 = base1 / dgp1.mean()
            base2 = base2 / dgp2.mean()
            base = family.orient(base1, base2)
        else:
            base = np.cumsum(q2 - q1) * spec.step
    bases = (family.compared(base1), family.compared(base2), base)
    curve1, curve2, diff = (_iterate(values, spec.step, passes, down) for values in bases)
    return spec, curve1, curve2, diff


def population_coefficient(
    dgp1, dgp2, family: DominanceFamily, resolution: int = 100_000
) -> float:
    """Population almost-dominance coefficient from analytic quantiles/CDFs.

    Rank-based families evaluate both quantile functions on a
    ``resolution``-point midpoint grid over [0, 1]; the default keeps the
    discretization error below 5e-4 for the heavy-tailed laws used in the
    bundled presets. First-degree stochastic dominance of two discrete
    laws is computed exactly from the step CDFs; higher SD degrees fall
    back to the grid on the pooled support.
    """
    if family.kind is Family.SD and family.degree == 1:
        return _exact_step_sdc(dgp1, dgp2)
    spec, _, _, diff = population_curves(dgp1, dgp2, family, resolution)
    return area_ratio(GridFunction(spec, diff))


@dataclass(frozen=True)
class MonteCarloStudy:
    """One simulation cell: a DGP pair, a family, sizes, and inference settings;
    ``scheme`` may be a :class:`SamplingScheme` value (``"matched"``), stored
    as the member; each replicate's data are drawn as matched pairs or as two
    samples by it, and from there on whether they hold pairs says which."""

    dgp1: object
    dgp2: object
    family: DominanceFamily
    scheme: SamplingScheme
    sizes: tuple[int, int]
    cfg: InferenceConfig
    n_reps: int
    true_c: float
    grid_points: int = GridSpec.n_points

    def __post_init__(self):
        object.__setattr__(self, "scheme", _member(SamplingScheme, self.scheme))
        n1, n2 = _pair("sizes", self.sizes, _integer)
        if n1 < 2 or n2 < 2:
            raise InvalidConfigError(f"sample sizes must be >= 2, got {n1} and {n2}")
        if self.scheme is SamplingScheme.MATCHED and n1 != n2:
            raise InvalidConfigError("matched pairs need equal sample sizes")
        _count("n_reps", self.n_reps)
        if _integer("grid_points", self.grid_points) < 2:
            raise InvalidConfigError(f"grid_points must be >= 2, got {self.grid_points}")
        if not 0.0 <= _real("true_c", self.true_c) <= 1.0:
            raise InvalidConfigError(f"true_c must lie in [0, 1], got {self.true_c}")


@dataclass(frozen=True)
class MonteCarloReport:
    """Summary of replicate estimates against the true coefficient.

    ``rmse`` is the root mean squared error of the estimates, so
    ``rmse**2 == bias**2 + se**2`` holds exactly with the population
    (1/n) standard error convention used here. ``cr`` is the fraction of
    confidence intervals that covered the truth and ``cr_se`` its Monte
    Carlo standard error ``sqrt(cr * (1 - cr) / reps_used)``. All of them
    leave out the ``n_failed`` replicates that could not be evaluated.
    """

    mean: float
    bias: float
    se: float
    rmse: float
    cr: float
    cr_se: float
    n_failed: int


def _simulate_data(study: MonteCarloStudy, rng: np.random.Generator):
    """A dataset drawn from the study's DGPs as ``(d1, d2, pairs)`` (pairs
    None unless matched), and its default grid."""
    n1, n2 = study.sizes
    x1 = study.dgp1.sample(n1, rng)
    x2 = study.dgp2.sample(n2, rng)
    data = PairedSample(x1, x2) if study.scheme is SamplingScheme.MATCHED else (x1, x2)
    d1, d2, pairs = _distributions(data)
    return (d1, d2, pairs), default_grid(study.family, d1, d2, study.grid_points)


def run_replicates(
    study: MonteCarloStudy, n_jobs: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate estimates and coverage indicators, in replicate order.

    Results are identical under any ``n_jobs``, and the first R replicates
    agree between runs with different ``n_reps``. A replicate that cannot
    be evaluated has estimate ``nan`` and is not covered.
    """
    results = _coverage_study(
        partial(_simulate_data, study), study.family, study.cfg,
        (study.cfg.t_n,), study.true_c, study.n_reps, n_jobs,
    )
    estimates = np.array([est for est, _ in results], dtype=float)
    covered = np.array([row is not None and row[0] for _, row in results], dtype=bool)
    return estimates, covered


def monte_carlo(study: MonteCarloStudy, n_jobs: int = 1) -> MonteCarloReport:
    """Run the study and summarize estimates and interval coverage.

    Replicates that cannot be evaluated are counted in ``n_failed`` and
    left out of the summary; :class:`NonFiniteDrawError` is raised if all
    are.
    """
    estimates, covered = run_replicates(study, n_jobs)
    used = ~np.isnan(estimates)
    if not used.any():
        raise NonFiniteDrawError("every Monte Carlo replicate failed")
    estimates, covered = estimates[used], covered[used]
    mean = float(np.mean(estimates))
    bias = mean - study.true_c
    se = float(np.std(estimates))
    rmse = float(np.sqrt(np.mean((estimates - study.true_c) ** 2)))
    cr = float(np.mean(covered))
    return MonteCarloReport(
        mean=mean,
        bias=bias,
        se=se,
        rmse=rmse,
        cr=cr,
        cr_se=float(np.sqrt(cr * (1.0 - cr) / estimates.size)),
        n_failed=study.n_reps - int(estimates.size),
    )
