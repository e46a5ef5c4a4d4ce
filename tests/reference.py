"""Reference paths that the tests check the package against.

The dense covariance kernels of the inverse-SD and SD fluctuation
processes, and :func:`std_curve`, which pushes a kernel through a family's
iterated-integration operator along both axes: the direct route to the
curve that :func:`almostdom.covariance.std_curve_for` computes from
rank-bin sums. And :func:`replicate_rows`, the scaled fluctuation curves
of bootstrap replicates at every grid node, which the engine's draws are
checked against.
"""

import numpy as np

from almostdom import covariance, inference
from almostdom.calculus import GridFunction, GridSpec
from almostdom.coefficients import DominanceFamily, Family
from almostdom.covariance import CovKernel
from almostdom.empirical import EmpiricalDistribution, PairedSample, SamplingScheme


def isd_kernel(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> CovKernel:
    """Covariance kernel of the integrated-quantile-difference process."""
    covariance._check_scheme(scheme, pairs, d1, d2)
    matrix = covariance._transform_cov(covariance._min_rows, d1, d2, pairs, scheme, spec)
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
    covariance._check_scheme(scheme, pairs, d1, d2)
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


def workspace(prep, rows: int) -> inference._Workspace:
    """A fresh engine workspace for chunks of ``rows`` replicates of ``prep``."""
    return inference._Workspace(inference._shape(prep, rows, 0))


def replicate_rows(prep, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled fluctuation curves ``root_n * (resampled - diff)`` at every
    node of the replicates whose streams are at ``states``, one row each,
    and a mask of the rows that are finite, built in a fresh workspace
    whose ``grid`` the curves are a view of.

    Replicate b draws from the stream keyed (seed, b), whose state is row b
    of ``stream_states(prep.seed, 0, n_boot)``. A row whose sums overflow is
    not finite, and a Lorenz row whose resample mean is not positive (or
    overflowed) is NaN.
    """
    space = workspace(prep, len(states))
    samples = inference._resamples(prep, states, space)
    every = inference._nodes(prep, np.arange(prep.spec.n_points))
    with np.errstate(all="ignore"):
        means = inference._means(prep, samples)
        rows = inference._fluctuations(prep, samples, means, space, every)
    return rows, np.isfinite(rows).all(axis=1)
