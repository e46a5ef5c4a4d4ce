"""Exact empirical distribution objects.

The empirical CDF, quantile function, integrated quantile, and Lorenz
curve are all evaluated exactly from order statistics; no grid enters
here. Grid discretization happens only downstream, in the iterated
integration operators.

Distributional smoothness (a continuously differentiable population CDF
with a finite 2+eps moment) is assumed by the asymptotic theory but is
not a checkable property of a finite sample; it is documented here rather
than enforced at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, EmptySampleError, NumericOverflowError, ZeroMeanError

__all__ = [
    "Sample",
    "PairedSample",
    "SamplingScheme",
    "EmpiricalDistribution",
    "build_empirical",
]


class SamplingScheme(Enum):
    """How the two samples were drawn: mutually independent, or as iid pairs."""

    INDEPENDENT = "independent"
    MATCHED = "matched"


def _checked_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, which must be a nonempty, finite, 1-D sample."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptySampleError(f"{what} contains no observations")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} contains non-finite values")
    return arr


def _as_clean_array(values, what: str) -> np.ndarray:
    arr = _checked_array(values, what).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Sample:
    """One sample of outcome values.

    Values may be any finite reals. The Lorenz and inverse-dominance
    families are meant for nonnegative outcomes, but the library does not
    check the sign: only the CLI reader rejects negative values for those
    families, and the library requires only a positive mean, and only for
    Lorenz curves.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_clean_array(self.values, "sample"))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Jointly observed (x1, x2) pairs; both coordinates have length ``n``."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        x1 = _as_clean_array(self.x1, "first coordinate")
        x2 = _as_clean_array(self.x2, "second coordinate")
        if x1.size != x2.size:
            raise DomainError(
                f"paired coordinates must have equal length, got {x1.size} and {x2.size}"
            )
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def n(self) -> int:
        return self.x1.size


class EmpiricalDistribution:
    """Sorted sample with exact quantile, integrated-quantile, and Lorenz evaluation.

    Immutable after construction and safe for concurrent reads.

    Attributes
    ----------
    sorted_values : ndarray
        Order statistics, ascending. Ties are kept as-is.
    mean : float
        Arithmetic mean of the sample.
    n : int
        Sample size.
    """

    def __init__(self, values):
        sorted_values = np.sort(_checked_array(values, "sample"))
        sorted_values.flags.writeable = False
        self.sorted_values = sorted_values
        self.n = int(sorted_values.size)
        # prefix[k] = sum of the k smallest observations (inf from an overflow on)
        with np.errstate(over="ignore"):
            prefix = np.concatenate(([0.0], np.cumsum(sorted_values)))
        prefix.flags.writeable = False
        self._prefix = prefix
        self.mean = float(prefix[-1] / self.n)
        # cdf levels k/n for k = 1..n; shared by quantile lookups
        levels = np.arange(1, self.n + 1) / self.n
        levels.flags.writeable = False
        self._levels = levels

    def __repr__(self) -> str:  # pragma: no cover
        return f"EmpiricalDistribution(n={self.n}, mean={self.mean:.6g})"

    def _check_probability(self, p: np.ndarray) -> None:
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise DomainError("probabilities must lie in [0, 1]")

    def cdf(self, x):
        """Fraction of observations <= x."""
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.sorted_values, x, side="right") / self.n
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Left-continuous inverse of the empirical CDF.

        Returns the ceil(n*p)-th order statistic for p > 0 and the sample
        minimum at p = 0 (the infimum over the whole line, which keeps the
        value finite for samples with negative support).
        """
        p = np.asarray(p, dtype=float)
        self._check_probability(p)
        idx = np.searchsorted(self._levels, p, side="left")
        idx = np.minimum(idx, self.n - 1)
        out = self.sorted_values[idx]
        return out if out.ndim else float(out)

    def cum_quantile(self, p):
        """Exact integral of the step quantile from 0 to p.

        With k = floor(n*p) this is ``(sum of the k smallest values +
        (n*p - k) * next value) / n``, a piecewise-linear function of p
        whose value at 1 is the sample mean.
        """
        p = np.asarray(p, dtype=float)
        self._check_probability(p)
        # an overflowed partial sum stays infinite, so the mean shows any overflow
        if not np.isfinite(self.mean):
            raise NumericOverflowError("the sample sum overflows the float range")
        out = cum_quantile_at(self.sorted_values, self._prefix, *quantile_positions(self.n, p))
        return out if out.ndim else float(out)

    def lorenz(self, p):
        """Share of the total held by the poorest fraction p of the sample.

        Exact piecewise-linear evaluation; lorenz(0) = 0 and lorenz(1) = 1.
        Requires a strictly positive mean.
        """
        if self.mean <= 0.0:
            raise ZeroMeanError(f"Lorenz curve needs a positive mean, got {self.mean:.6g}")
        out = self.cum_quantile(p)
        return out / self.mean


def quantile_positions(n: int, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the integrated quantile of an ``n``-point sample is read at
    ``p``: ``k = floor(n*p)`` (at most ``n``); ``at = min(k, n - 1)``, the
    order statistic after the ``k`` smallest; and its weight ``frac``, the
    fractional part ``n*p - k`` (0 where ``k = n``)."""
    t = n * p
    k = np.minimum(np.floor(t).astype(np.int64), n)
    frac = np.where(k < n, np.maximum(t - k, 0.0), 0.0)
    return k, np.minimum(k, n - 1), frac


def cum_quantile_at(
    ordered: np.ndarray,
    prefix: np.ndarray,
    k: np.ndarray,
    at: np.ndarray,
    frac: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Integrated quantile at positions ``k``, ``at``, ``frac`` (see
    :func:`quantile_positions`, so they are in range) of the order
    statistics ``ordered``, whose prefix sums (led by a zero) are ``prefix``.

    The last axis indexes the order statistics, so ``ordered`` may be one
    sample or a stack of them, one per row. ``out``, when given, is a pair
    of arrays of the result's shape: the result is written into the first
    and the second is scratch, so the call allocates nothing.
    """
    n = ordered.shape[-1]
    result, scratch = (None, None) if out is None else out
    # the indices are in range, and a mode other than "raise" lets np.take
    # write straight into ``out`` instead of a buffer
    result = np.take(ordered, at, axis=-1, out=result, mode="clip")
    result *= frac
    result += np.take(prefix, k, axis=-1, out=scratch, mode="clip")
    result /= n
    return result


def build_empirical(sample) -> EmpiricalDistribution:
    """Build the empirical distribution of a :class:`Sample` (or raw array).

    The input is copied and left unmodified.
    """
    values = sample.values if isinstance(sample, Sample) else sample
    return EmpiricalDistribution(values)
