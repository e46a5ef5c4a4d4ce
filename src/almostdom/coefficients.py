"""Dominance families, their difference curves, and the point estimate.

Each family compares two distributions through a signed difference curve
built so that values near zero of its area ratio always mean "the first
distribution almost dominates the second":

* Lorenz family, degree m: iterated integrals of the Lorenz difference
  ``L2 - L1``, integrated from 0 (upward, weighting the poor end) or
  toward 1 (downward, weighting the rich end).
* Inverse stochastic dominance, degree m: iterated integrals of the
  integrated-quantile difference; degree 2 upward is generalized Lorenz
  dominance. The family is classically defined from degree 3 up; degree 2
  is exposed here because it reuses the same machinery.
* Stochastic dominance, degree m: iterated integrals of the CDF
  difference ``F1 - F2`` on a bounded domain.

The base curves are evaluated exactly per node from order statistics;
only the degree-raising integrals are grid operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .calculus import (
    GridFunction,
    GridSpec,
    _integer,
    _member,
    area_ratio,
    iterated_cumsum,
    negative_area,
    positive_area,
)
from .empirical import EmpiricalDistribution
from .errors import (
    DegenerateCurvesError,
    InvalidConfigError,
    InvalidFamilyDegreeError,
    NumericOverflowError,
    ZeroMeanError,
)

__all__ = [
    "Family",
    "Direction",
    "DominanceFamily",
    "CoefficientEstimate",
    "PreferenceFunction",
    "cubic_preference",
    "RankMeasures",
    "default_grid",
    "family_curves",
    "difference_curve",
    "coefficient",
    "rank_measures",
]


class Family(Enum):
    LORENZ = "lorenz"
    INVERSE_SD = "isd"
    SD = "sd"


class Direction(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class DominanceFamily:
    """A dominance criterion: family kind, degree, and integration direction.

    ``kind`` and ``direction`` are stored as enum members, given either as
    members or by their values (``"lorenz"``, ``"down"``). Valid
    combinations: Lorenz with degree >= 1 (at degree 1 the two directions
    coincide and are normalized to UP); inverse stochastic dominance with
    degree >= 2 (degree 2 is upward only); stochastic dominance with
    degree >= 1 (direction does not apply and is normalized to UP).
    """

    kind: Family
    degree: int
    direction: Direction = Direction.UP

    def __post_init__(self):
        for name, kind in (("kind", Family), ("direction", Direction)):
            member = _member(kind, getattr(self, name), InvalidFamilyDegreeError)
            object.__setattr__(self, name, member)
        if _integer("degree", self.degree, InvalidFamilyDegreeError) < 1:
            raise InvalidFamilyDegreeError(f"degree must be >= 1, got {self.degree}")
        if self.kind is Family.INVERSE_SD:
            if self.degree < 2:
                raise InvalidFamilyDegreeError(
                    "inverse stochastic dominance needs degree >= 2"
                )
            if self.degree == 2 and self.direction is Direction.DOWN:
                raise InvalidFamilyDegreeError(
                    "downward inverse stochastic dominance needs degree >= 3"
                )
        if self.kind is Family.SD or (self.kind is Family.LORENZ and self.degree == 1):
            object.__setattr__(self, "direction", Direction.UP)

    @classmethod
    def lorenz(cls, degree: int = 1, direction: Direction = Direction.UP):
        return cls(Family.LORENZ, degree, direction)

    @classmethod
    def inverse_sd(cls, degree: int, direction: Direction = Direction.UP):
        return cls(Family.INVERSE_SD, degree, direction)

    @classmethod
    def sd(cls, degree: int = 1):
        return cls(Family.SD, degree)

    @property
    def operator_degree(self) -> int:
        """Degree of the iterated-integration operator applied to the base curve.

        The inverse-SD base curve is already one integration up from the
        quantile function, so its operator degree is one less than the
        family degree.
        """
        return self.degree - 1 if self.kind is Family.INVERSE_SD else self.degree

    def integrate(
        self, values: np.ndarray, step: float, axis: int = -1, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The family's iterated-integration operator along ``axis``.

        Applies ``operator_degree - 1`` cumulative-integral passes, from the
        lower end (upward) or toward the upper end (downward), to a copy of
        ``values``, or to ``out`` when given (which may be ``values``
        itself, to integrate in place); at operator degree 1 without ``out``
        it returns ``values`` itself. This is the map from a family's degree
        and direction to passes used by the estimator and the bootstrap
        replicates; the rank-bin studentization runs the same passes through
        its sums.
        """
        passes = self.operator_degree - 1
        if not passes and out is None:
            return values
        downward = self.direction is Direction.DOWN
        return iterated_cumsum(values, step, passes, downward, axis, out)

    def orient(self, first: np.ndarray, second: np.ndarray, out=None) -> np.ndarray:
        """``first - second`` for stochastic dominance, else ``second -
        first``, in ``out`` when given: the first and second distribution's
        curves combined as :func:`difference_curve` orients them."""
        if self.kind is Family.SD:
            return np.subtract(first, second, out=out)
        return np.subtract(second, first, out=out)

    def compared(self, base: np.ndarray) -> np.ndarray:
        """``1 - base`` for downward Lorenz, else ``base``: one distribution's base
        curve as the family compares it (the complements cancel in :meth:`orient`)."""
        if self.kind is Family.LORENZ and self.direction is Direction.DOWN:
            return 1.0 - base
        return base


@dataclass(frozen=True, eq=False)
class CoefficientEstimate:
    """Point estimate of an almost-dominance coefficient.

    ``c_hat`` is the positive share of the difference curve's unsigned area,
    from its unscaled node sums; ``pos_area`` and ``neg_area`` are the scaled
    areas and may read 0 while ``c_hat`` is defined. ``effective_n`` is
    ``n1 * n2 / (n1 + n2)``, the rate factor of the two-sample limit
    theory; ``size_share`` is ``n1 / (n1 + n2)``.
    """

    c_hat: float
    pos_area: float
    neg_area: float
    difference: GridFunction
    family: DominanceFamily
    n1: int
    n2: int
    effective_n: float
    size_share: float


class RankMeasures(NamedTuple):
    """Rank-dependent inequality index, welfare level, and sample mean."""

    inequality: float
    welfare: float
    mean: float


@dataclass(frozen=True)
class PreferenceFunction:
    """A rank preference through its weight function (the derivative P').

    ``weight(t)`` gives the marginal weight placed on the outcome at rank
    t in [0, 1]; decreasing weights encode inequality aversion.
    """

    weight: Callable[[np.ndarray], np.ndarray]
    name: str


def cubic_preference() -> PreferenceFunction:
    """The cubic preference t**3 - 3t**2 + 3t, with weight 3(1-t)**2."""
    return PreferenceFunction(weight=lambda t: 3.0 * (1.0 - t) ** 2, name="cubic")


def default_grid(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    n_points: int = GridSpec.n_points,
) -> GridSpec:
    """The natural grid for a family: [0, 1] for rank-based families, the
    pooled sample hull for stochastic dominance (DegenerateCurvesError when
    that is a single point: the samples are indistinguishable)."""
    if family.kind is Family.SD:
        lo = min(d1.sorted_values[0], d2.sorted_values[0])
        hi = max(d1.sorted_values[-1], d2.sorted_values[-1])
        if lo == hi:
            raise DegenerateCurvesError("pooled sample is a single point; no domain")
        return GridSpec(n_points, (float(lo), float(hi)))
    return GridSpec(n_points, (0.0, 1.0))


def _base_values(
    family: DominanceFamily, dist: EmpiricalDistribution, spec: GridSpec
) -> np.ndarray:
    nodes = spec.nodes()
    if family.kind is Family.LORENZ:
        return dist.lorenz(nodes)
    if family.kind is Family.INVERSE_SD:
        return dist.cum_quantile(nodes)
    return dist.cdf(nodes)


def _check_grid(family: DominanceFamily, d1, d2, spec: GridSpec) -> None:
    if family.kind is Family.SD:
        lo, hi = spec.domain
        if lo > min(d1.sorted_values[0], d2.sorted_values[0]) or hi < max(
            d1.sorted_values[-1], d2.sorted_values[-1]
        ):
            raise InvalidConfigError(
                "stochastic-dominance grid domain must cover both samples"
            )
    elif spec.domain != (0.0, 1.0):
        raise InvalidConfigError(
            f"{family.kind.value} curves live on [0, 1], got domain {spec.domain}"
        )


def _raise_degree(family: DominanceFamily, base: GridFunction) -> GridFunction:
    with np.errstate(over="ignore", invalid="ignore"):
        values = family.integrate(base.values, base.spec.step)
    if not np.all(np.isfinite(values)):
        raise NumericOverflowError(
            f"degree-{family.operator_degree} integral overflows the float range"
        )
    return GridFunction(base.spec, values)


def family_curves(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    spec: GridSpec,
) -> tuple[GridFunction, GridFunction]:
    """The two degree-raised curves the family compares (first, second).

    These are the iterated Lorenz curves upward and the iterated
    complements ``1 - L`` downward (:meth:`DominanceFamily.compared`), the
    iterated integrated quantiles for inverse SD, and the iterated CDFs for
    SD. Mainly useful for plotting.
    """
    _check_grid(family, d1, d2, spec)
    b1, b2 = (GridFunction(spec, family.compared(_base_values(family, d, spec))) for d in (d1, d2))
    return _raise_degree(family, b1), _raise_degree(family, b2)


def difference_curve(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    spec: GridSpec,
) -> GridFunction:
    """The signed difference curve whose area ratio is the coefficient.

    Oriented so that a curve that is nowhere positive means the first
    distribution dominates the second: ``L2 - L1`` raised upward or
    downward (the downward curves of both distributions share the
    complement transform, which cancels in the difference), the
    integrated-quantile difference (second minus first), or ``F1 - F2``
    for stochastic dominance.
    """
    _check_grid(family, d1, d2, spec)
    # the second curve first, so that its ZeroMeanError is the one raised
    second = _base_values(family, d2, spec)
    base = family.orient(_base_values(family, d1, spec), second)
    return _raise_degree(family, GridFunction(spec, base))


def coefficient(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    spec: GridSpec,
) -> CoefficientEstimate:
    """Estimate the almost-dominance coefficient of ``d1`` over ``d2``.

    Raises :class:`~almostdom.errors.DegenerateCurvesError` when the
    difference curve vanishes identically (e.g. identical samples).
    """
    diff = difference_curve(family, d1, d2, spec)
    pos = positive_area(diff)
    neg = negative_area(diff)
    c_hat = area_ratio(diff)
    n1, n2 = d1.n, d2.n
    return CoefficientEstimate(
        c_hat=c_hat,
        pos_area=pos,
        neg_area=neg,
        difference=diff,
        family=family,
        n1=n1,
        n2=n2,
        effective_n=n1 * n2 / (n1 + n2),
        size_share=n1 / (n1 + n2),
    )


def rank_measures(
    dist: EmpiricalDistribution, pref: PreferenceFunction, spec: GridSpec
) -> RankMeasures:
    """Rank-dependent inequality index and welfare of one distribution.

    Welfare is the weight-averaged quantile ``sum of weight(p) * Q(p)``
    over the grid; the inequality index is ``1 - welfare / mean``, so the
    identity ``welfare = mean * (1 - inequality)`` holds exactly in the
    same quadrature. Under the cubic preference a constant sample has
    inequality ``1/(4 G**2)`` on G nodes, not 0, because the midpoint sum
    of the cubic weights is ``1 - 1/(4 G**2)``. Raises
    ``NumericOverflowError`` when the sample sum or the welfare sum
    overflows the float range.
    """
    if spec.domain != (0.0, 1.0):
        raise InvalidConfigError("rank measures need a grid on [0, 1]")
    if not np.isfinite(dist.mean):
        raise NumericOverflowError("the sample sum overflows the float range")
    if dist.mean <= 0.0:
        raise ZeroMeanError("rank measures need a positive sample mean")
    nodes = spec.nodes()
    with np.errstate(over="ignore", invalid="ignore"):
        welfare = float(np.sum(pref.weight(nodes) * dist.quantile(nodes)) * spec.step)
    if not np.isfinite(welfare):
        raise NumericOverflowError("the welfare sum overflows the float range")
    inequality = 1.0 - welfare / dist.mean
    return RankMeasures(inequality=inequality, welfare=welfare, mean=dist.mean)
