"""Reference paths that the tests check the package against.

The dense covariance kernels (:class:`CovKernel`) of the Lorenz, inverse-SD
and SD fluctuation processes, and :func:`std_curve`, which pushes a kernel
through a family's iterated-integration operator along both axes: the
direct route to the curve that :func:`almostdom.covariance.std_curve_for`
computes from rank-bin sums. And :func:`replicate_rows`, the scaled
fluctuation curves of bootstrap replicates at every grid node, which the
engine's draws are checked against.
"""

from dataclasses import dataclass

import numpy as np

from almostdom import covariance, inference
from almostdom.calculus import GridFunction, GridSpec
from almostdom.coefficients import DominanceFamily, Family
from almostdom.covariance import _check_scheme, _Wide
from almostdom.empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from almostdom.errors import DomainError
from almostdom.rng import Scratch


# values per transform block of the dense kernels: 8 MB of float64
_CHUNK_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class CovKernel:
    """Covariance kernel of a family's fluctuation process at every pair of
    nodes."""

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


def _lorenz_rows(
    dist: EmpiricalDistribution, values: np.ndarray, nodes: np.ndarray
) -> _Wide:
    lor = _Wide(dist.lorenz(nodes)[:, None])
    shifted = _Wide(values[None, :]) - dist.quantile(0.5)
    return (lor * shifted - _min_rows(dist, values, nodes)) / dist.mean


def _min_rows(
    dist: EmpiricalDistribution, values: np.ndarray, nodes: np.ndarray
) -> _Wide:
    """``min(quantile, x)`` at the nodes by the observations, less its value
    at the sample median. The shift changes each row by a constant, which
    the covariance drops, and turns a constant sample into rows of exact
    zeros; the double-double rows keep a matched combination that is a small
    difference of two large transforms exact to its own rounding."""
    rows = np.minimum(dist.quantile(nodes)[:, None], values[None, :])
    return _Wide(rows) - dist.quantile(0.5)


def _chunked_cov(make_block, n_obs, n_points) -> np.ndarray:
    """Sample covariance of the blocks ``make_block(lo, hi)`` (nodes by
    observations [lo, hi)). Chan et al.'s pairwise update merges each
    chunk's mean and scatter into the running ones; every block is first
    shifted by the first observation's column, so a node whose transform
    is the same for every observation gets exact zeros."""
    chunk = max(1, _CHUNK_BUDGET // n_points)
    count = 0
    mean = np.zeros(n_points)
    scatter = np.zeros((n_points, n_points))
    first = None
    for lo in range(0, n_obs, chunk):
        block = make_block(lo, min(lo + chunk, n_obs))
        if first is None:
            first = block[:, :1].copy()
        block -= first
        size = block.shape[1]
        block_mean = block.mean(axis=1)
        block -= block_mean[:, None]
        scatter += block @ block.T
        delta = block_mean - mean
        total = count + size
        if count:
            scatter += np.outer(delta, delta) * (count * size / total)
        mean += delta * (size / total)
        count = total
    return scatter / (n_obs - 1)


def _transform_cov(transform, d1, d2, pairs, scheme, spec) -> np.ndarray:
    """Covariance kernel of the per-observation ``transform`` (see
    :func:`_lorenz_rows`) under ``scheme``."""
    nodes = spec.nodes()
    share1 = d1.n / (d1.n + d2.n)

    if scheme is SamplingScheme.MATCHED:
        w2, w1 = np.sqrt(share1), np.sqrt(1.0 - share1)

        def combined(lo, hi):
            block = w2 * transform(d2, pairs.x2[lo:hi], nodes) - w1 * transform(
                d1, pairs.x1[lo:hi], nodes
            )
            return block.value()

        return _chunked_cov(combined, pairs.n, spec.n_points)

    def sample_cov(dist):
        return _chunked_cov(
            lambda lo, hi: transform(dist, dist.sorted_values[lo:hi], nodes).value(),
            dist.n,
            spec.n_points,
        )

    return (1.0 - share1) * sample_cov(d1) + share1 * sample_cov(d2)


def lorenz_kernel(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> CovKernel:
    """Covariance kernel of the Lorenz-difference fluctuation process, from
    dense n-by-G transform blocks."""
    _check_scheme(scheme, pairs, d1, d2)
    matrix = _transform_cov(_lorenz_rows, d1, d2, pairs, scheme, spec)
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
    matrix = _transform_cov(_min_rows, d1, d2, pairs, scheme, spec)
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
    step = kernel.spec.step
    matrix = family.integrate(family.integrate(kernel.matrix, step, axis=0), step, axis=1)
    return covariance._std(kernel.spec, np.diagonal(matrix))


def replicate_rows(prep, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled fluctuation curves ``root_n * (resampled - diff)`` at every
    node of the replicates whose streams are at ``states``, one row each,
    and a mask of the rows that are finite, built in a fresh scratch that
    the curves are a view of.

    Replicate b draws from the stream keyed (seed, b), whose state is row b
    of ``stream_states(prep.seed, 0, n_boot)``. A row whose sums overflow is
    not finite, and a Lorenz row whose resample mean is not positive (or
    overflowed) is NaN.
    """
    scratch = Scratch()
    samples = inference._resamples(prep, states, scratch)
    every = inference._nodes(prep, np.arange(prep.spec.n_points))
    with np.errstate(all="ignore"):
        means = inference._means(prep, samples)
        rows = inference._fluctuations(prep, samples, means, scratch, every)
    return rows, np.isfinite(rows).all(axis=1)
