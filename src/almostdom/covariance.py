"""Plug-in covariance kernels and studentization curves.

Each dominance family has a limiting Gaussian fluctuation process for its
estimated base curve; the kernels here estimate that process's covariance
on the working grid, and :func:`std_curve` pushes a kernel through the
family's iterated-integration operator (along both axes) to obtain the
pointwise standard deviation used to studentize contact sets.

For the rank-based families the kernel is a sample covariance of
per-observation transforms:

* Lorenz: ``(lorenz(p) * x - min(quantile(p), x)) / mean``
* inverse SD: ``min(quantile(p), x)``

Matched pairs combine the two samples' transforms per pair (the second
sample's transform weighted by +sqrt(share1), the first's by
-sqrt(share2), where share_j is sample j's size share) and take one
sample covariance, which equals the four-term mixture of within- and
cross-sample covariances.
The stochastic-dominance kernel is assembled directly from the empirical
(joint) CDFs.

Kernels are dense G-by-G matrices over the G grid nodes. Studentization
needs only the diagonal of the integrated kernel, which for the
transform families is the variance of the integrated transform:
:func:`std_curve_for` computes that without any G-by-G array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import GridFunction, GridSpec
from .coefficients import DominanceFamily, Family
from .empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from .errors import (
    DomainError,
    FamilyMismatchError,
    InvalidConfigError,
    NumericOverflowError,
    SchemeMismatchError,
)

__all__ = [
    "CovKernel",
    "lorenz_kernel",
    "isd_kernel",
    "sd_kernel",
    "std_curve",
    "std_curve_for",
]

# 32 MB of float64 per transform block; std_curve_for peaks near 122 MB
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True, eq=False)
class CovKernel:
    """Estimated covariance kernel of a family's fluctuation process."""

    spec: GridSpec
    matrix: np.ndarray
    family_kind: Family
    scheme: SamplingScheme

    def __post_init__(self):
        n = self.spec.n_points
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (n, n):
            raise DomainError(f"kernel must be {n}x{n}, got {matrix.shape}")
        # enforce exact symmetry and a nonnegative diagonal; the inputs are
        # symmetric up to BLAS rounding and the diagonal feeds a square root
        matrix = 0.5 * (matrix + matrix.T)
        diag = np.diag_indices(n)
        matrix[diag] = np.maximum(matrix[diag], 0.0)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)


def _check_scheme(scheme: SamplingScheme, pairs, d1, d2) -> None:
    if scheme is SamplingScheme.MATCHED:
        if pairs is None:
            raise SchemeMismatchError("matched-pairs kernels need the paired sample")
        if pairs.n != d1.n or pairs.n != d2.n:
            raise SchemeMismatchError(
                "paired sample size differs from the marginal distributions"
            )
    elif pairs is not None:
        raise SchemeMismatchError("independent scheme does not take a paired sample")
    if d1.n < 2 or d2.n < 2:
        raise InvalidConfigError("covariance estimation needs at least 2 observations")


def _lorenz_rows(
    dist: EmpiricalDistribution, values: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    lor = dist.lorenz(nodes)
    quant = dist.quantile(nodes)
    return (lor[:, None] * values[None, :] - np.minimum(quant[:, None], values[None, :])) / dist.mean


def _min_rows(
    dist: EmpiricalDistribution, values: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    quant = dist.quantile(nodes)
    return np.minimum(quant[:, None], values[None, :])


def _gram(centered: np.ndarray) -> np.ndarray:
    return centered @ centered.T


def _row_squares(centered: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", centered, centered)


def _chunked_cov(make_block, n_obs, spec, square, family) -> np.ndarray:
    """Sample covariance of the blocks ``make_block(lo, hi)`` (nodes by
    observations [lo, hi)), each raised by ``family``'s integration operator
    along the node axis and reduced by ``square``. Chan et al.'s pairwise
    update merges each chunk's mean and scatter into the running ones."""
    n_points = spec.n_points
    chunk = max(1, _CHUNK_BUDGET // n_points)
    count = 0
    mean = np.zeros(n_points)
    scatter = square(np.zeros((n_points, 0)))  # the scatter of no observations
    for lo in range(0, n_obs, chunk):
        block = make_block(lo, min(lo + chunk, n_obs))
        block = family.integrate(block, spec.step, axis=0)
        size = block.shape[1]
        block_mean = block.mean(axis=1)
        block -= block_mean[:, None]
        scatter += square(block)
        delta = block_mean - mean
        total = count + size
        if count:
            scatter += square(delta[:, None]) * (count * size / total)
        mean += delta * (size / total)
        count = total
    return scatter / (n_obs - 1)


def _transform_cov(family, d1, d2, pairs, scheme, spec, square) -> np.ndarray:
    """Covariance of the family's integrated transform under ``scheme``."""
    transform = _lorenz_rows if family.kind is Family.LORENZ else _min_rows
    nodes = spec.nodes()
    share1 = d1.n / (d1.n + d2.n)

    def cov(make_block, n_obs):
        return _chunked_cov(make_block, n_obs, spec, square, family)

    if scheme is SamplingScheme.MATCHED:
        w2, w1 = np.sqrt(share1), np.sqrt(1.0 - share1)

        def combined(lo, hi):
            return w2 * transform(d2, pairs.x2[lo:hi], nodes) - w1 * transform(
                d1, pairs.x1[lo:hi], nodes
            )

        return cov(combined, pairs.n)

    def sample_cov(dist):
        return cov(lambda lo, hi: transform(dist, dist.sorted_values[lo:hi], nodes), dist.n)

    return (1.0 - share1) * sample_cov(d1) + share1 * sample_cov(d2)


def lorenz_kernel(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> CovKernel:
    """Covariance kernel of the Lorenz-difference fluctuation process."""
    _check_scheme(scheme, pairs, d1, d2)
    matrix = _transform_cov(DominanceFamily.lorenz(1), d1, d2, pairs, scheme, spec, _gram)
    return CovKernel(spec, matrix, Family.LORENZ, scheme)


def isd_kernel(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> CovKernel:
    """Covariance kernel of the integrated-quantile-difference process."""
    _check_scheme(scheme, pairs, d1, d2)
    # degree 2 is operator degree 1: the kernel of the integrated quantile itself
    family = DominanceFamily.inverse_sd(2)
    matrix = _transform_cov(family, d1, d2, pairs, scheme, spec, _gram)
    return CovKernel(spec, matrix, Family.INVERSE_SD, scheme)


def _joint_cdf_grid(pairs: PairedSample, nodes: np.ndarray) -> np.ndarray:
    """Joint empirical CDF of the pairs at every (node, node) combination."""
    n_points = nodes.size
    i1 = np.searchsorted(nodes, pairs.x1, side="left")
    i2 = np.searchsorted(nodes, pairs.x2, side="left")
    counts = np.zeros((n_points + 1, n_points + 1))
    np.add.at(counts, (i1, i2), 1.0)
    return counts[:n_points, :n_points].cumsum(axis=0).cumsum(axis=1) / pairs.n


def sd_kernel(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> CovKernel:
    """Covariance kernel of the CDF-difference process on the bounded domain."""
    _check_scheme(scheme, pairs, d1, d2)
    nodes = spec.nodes()
    f1 = d1.cdf(nodes)
    f2 = d2.cdf(nodes)
    share1 = d1.n / (d1.n + d2.n)
    matrix = (1.0 - share1) * (np.minimum.outer(f1, f1) - np.outer(f1, f1))
    matrix += share1 * (np.minimum.outer(f2, f2) - np.outer(f2, f2))
    if scheme is SamplingScheme.MATCHED:
        cross = _joint_cdf_grid(pairs, nodes) - np.outer(f1, f2)
        matrix -= np.sqrt(share1 * (1.0 - share1)) * (cross + cross.T)
    return CovKernel(spec, matrix, Family.SD, scheme)


def std_curve(kernel: CovKernel, family: DominanceFamily) -> GridFunction:
    """Pointwise standard deviation of the degree-raised fluctuation process.

    Applies the family's iterated integration to the kernel along both
    axes and returns the square root of the diagonal. At operator degree
    1 this is just the square root of the kernel diagonal.
    """
    if kernel.family_kind is not family.kind:
        raise FamilyMismatchError(
            f"kernel estimates the {kernel.family_kind.value} process, "
            f"family is {family.kind.value}"
        )
    step = kernel.spec.step
    matrix = family.integrate(family.integrate(kernel.matrix, step, axis=0), step, axis=1)
    return _std(kernel.spec, np.diagonal(matrix))


def _std(spec: GridSpec, var: np.ndarray) -> GridFunction:
    if not np.all(np.isfinite(var)):
        raise NumericOverflowError("studentization variance overflows the float range")
    return GridFunction(spec, np.sqrt(np.maximum(var, 0.0)))


def _sd_variance(d1, d2, pairs, scheme, spec) -> np.ndarray:
    """Diagonal of :func:`sd_kernel`, from the CDFs in O(n + G)."""
    nodes = spec.nodes()
    share1 = d1.n / (d1.n + d2.n)
    f1 = d1.cdf(nodes)
    f2 = d2.cdf(nodes)
    var = (1.0 - share1) * f1 * (1.0 - f1) + share1 * f2 * (1.0 - f2)
    if scheme is SamplingScheme.MATCHED:
        both_below = np.sort(np.maximum(pairs.x1, pairs.x2))
        joint_diag = np.searchsorted(both_below, nodes, side="right") / pairs.n
        var -= 2.0 * np.sqrt(share1 * (1.0 - share1)) * (joint_diag - f1 * f2)
    return var


def std_curve_for(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> GridFunction:
    """Studentization curve for a family: ``std_curve`` of its kernel.

    The Lorenz and inverse-SD families take the per-node variance of the
    integrated transform, chunk by chunk, and build no kernel. The SD family
    keeps its CDF closed form at degree 1, O(n + G) where the transform would
    cost O(n * G), and integrates :func:`sd_kernel` above it.
    """
    _check_scheme(scheme, pairs, d1, d2)
    # a variance that overflows is not finite, and _std raises
    with np.errstate(over="ignore", invalid="ignore"):
        if family.kind is not Family.SD:
            var = _transform_cov(family, d1, d2, pairs, scheme, spec, _row_squares)
        elif family.degree > 1:
            return std_curve(sd_kernel(d1, d2, pairs, scheme, spec), family)
        else:
            var = _sd_variance(d1, d2, pairs, scheme, spec)
    return _std(spec, var)
