"""Uniform-grid functions, iterated integration, and signed-area maps.

Every curve in the package is tabulated at the midpoints of a uniform
grid: ``p_k = lo + (k - 1/2) * step`` for ``k = 1..n_points``. The
midpoint layout keeps the endpoints out of the node set, which matters
because heavy-tailed quantile functions diverge at 1, and it makes the
plain rectangle rule second-order accurate for smooth integrands.

Integrals are rectangle sums over the node set. Cumulative (prefix or
suffix) sums include the current node, so a single pass of
:func:`iterated_cumsum` carries an O(step) bias that is shared by every
curve entering a ratio and cancels to first order there. A dominance
family's degree-raising operator is a number of such passes
(:meth:`~almostdom.coefficients.DominanceFamily.integrate`).

The area ratio and its directional derivative are homogeneous of degree
0 in the step, so both read the unscaled node sums of :func:`_node_sums`
and stay defined where the scaled areas underflow to 0.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCurvesError,
    DomainError,
    InvalidConfigError,
    NumericOverflowError,
)

__all__ = [
    "GridSpec",
    "GridFunction",
    "positive_area",
    "negative_area",
    "area_ratio",
    "iterated_cumsum",
]


def _integer(name: str, value, error: type[Exception] = InvalidConfigError) -> int:
    """``value`` as an int: any integer type but ``bool``, else ``error``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return number


def _count(name: str, value) -> int:
    """``value`` as an int of at least 1 (see :func:`_integer`)."""
    number = _integer(name, value)
    if number < 1:
        raise InvalidConfigError(f"{name} must be >= 1, got {number}")
    return number


def _real(name: str, value) -> float:
    """``value`` as a float: any real number type but ``bool``, else InvalidConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfigError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _pair(name: str, value, convert) -> tuple:
    """The two items of ``value``, each through ``convert(name, item)``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise InvalidConfigError(f"{name} must be a pair, got {value!r}") from None
    return convert(name, first), convert(name, second)


def _member(kind: type, value, error: type[Exception] = InvalidConfigError):
    """The member of the enum ``kind`` that ``value`` is or names, else ``error``."""
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(repr(member.value) for member in kind)
        raise error(f"{kind.__name__} must be one of {names}, got {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """A uniform midpoint grid with ``n_points`` nodes on ``domain``."""

    n_points: int = 1000
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if _integer("n_points", self.n_points) < 2:
            raise InvalidConfigError(f"n_points must be >= 2, got {self.n_points}")
        lo, hi = _pair("domain", self.domain, _real)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InvalidConfigError(f"domain must be a finite interval, got {self.domain}")
        if hi - lo == np.inf:
            raise InvalidConfigError(f"domain width overflows, got {self.domain}")
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def step(self) -> float:
        lo, hi = self.domain
        return (hi - lo) / self.n_points

    def nodes(self) -> np.ndarray:
        """Midpoint nodes, ascending."""
        lo, _ = self.domain
        return lo + (np.arange(self.n_points) + 0.5) * self.step


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real-valued function tabulated on a :class:`GridSpec`.

    Immutable value data; ``c * f`` scales the values by a real ``c``.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.spec.n_points,):
            raise DomainError(
                f"values must have shape ({self.spec.n_points},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("grid function values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.spec, self.values * float(scalar))

    __rmul__ = __mul__


def iterated_cumsum(
    values: np.ndarray,
    step: float,
    passes: int,
    downward: bool = False,
    axis: int = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``passes`` cumulative-integral sweeps along ``axis``.

    Each sweep replaces the array by its inclusive prefix (or suffix, when
    ``downward``) sum scaled by ``step``, in place on one copy of ``values``,
    or on ``out`` when given (which may be ``values`` itself).
    Shared by grid functions and stacks of curves, one per row.
    """
    if out is None:
        out = np.array(values, dtype=float)
    elif out is not values:
        np.copyto(out, values)
    view = np.flip(out, axis=axis) if downward else out
    for _ in range(passes):
        np.cumsum(view, axis=axis, out=view)
        view *= step
    return out


def _node_sums(values: np.ndarray) -> tuple[float, float]:
    """Unscaled sums ``(sum max(v, 0), sum max(-v, 0))``, inf past the float range."""
    with np.errstate(over="ignore"):
        pos = float(np.maximum(values, 0.0).sum())
        neg = float(np.maximum(-values, 0.0).sum())
    return pos, neg


def positive_area(f: GridFunction) -> float:
    """Rectangle-rule integral of ``max(f, 0)`` over the domain."""
    return _node_sums(f.values)[0] * f.spec.step


def negative_area(f: GridFunction) -> float:
    """Rectangle-rule integral of ``max(-f, 0)`` over the domain."""
    return _node_sums(f.values)[1] * f.spec.step


def area_ratio(f: GridFunction) -> float:
    """Share of the total unsigned area that lies above zero.

    This is the almost-dominance coefficient of a difference curve: 0
    means the curve is nowhere positive (clean dominance), 1 means it is
    nowhere negative (clean reverse dominance). The step cancels, so the
    ratio is taken from the unscaled node sums and stays defined where the
    scaled areas underflow to 0. Raises
    :class:`~almostdom.errors.NumericOverflowError` when the scaled total
    overflows and :class:`~almostdom.errors.DegenerateCurvesError` when the
    curve is identically zero on the grid, i.e. the two underlying
    distributions are indistinguishable at this resolution.
    """
    pos, neg = _node_sums(f.values)
    if (pos + neg) * f.spec.step == np.inf:
        raise NumericOverflowError("curve area overflows the float range")
    if pos + neg == 0.0:
        raise DegenerateCurvesError(
            "difference curve is identically zero on the grid; "
            "coefficient undefined, distributions indistinguishable"
        )
    return pos / (pos + neg)
