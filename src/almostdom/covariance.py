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

Kernels are dense G-by-G matrices over the G grid nodes, and
:func:`lorenz_kernel` and :func:`isd_kernel` build them from n-by-G
transform blocks; they and :func:`sd_kernel` with :func:`std_curve` are
reference implementations. Studentization needs only the diagonal of the
integrated kernel, and :func:`std_curve_for` computes it without any
n-by-G or G-by-G array. For the rank-based families a transform depends
on x only through its rank bin r (the number of nodes whose quantile is
at most x) and is linear in x inside a bin (the integrated-CDF
representation of Davidson and Duclos, 2000). The SD transform after
p >= 1 passes depends on x through its bin alone: it is the same hinge
in node-index coordinates. Per-bin sums carried through the integration
passes by recursions give the variance in O(n log n + p**2 (n + G)) time
and O(n + p**2 G) memory, p being the number of passes; SD at degree 1 (no
pass) keeps the closed form from the CDFs, O(n + G). The sums are taken
in double-double arithmetic: under matched pairs the variance is the two
samples' variances less twice their covariance, which nearly cancel
where the pairs nearly coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import GridFunction, GridSpec
from .coefficients import Direction, DominanceFamily, Family
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

# values per transform block of the reference kernels: 8 MB of float64
_CHUNK_BUDGET = 1_000_000


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


# Double-double arithmetic, about 32 significant digits. Under matched pairs
# the studentization variance is a small difference of large terms where the
# pairs nearly coincide: the combined transform of the reference kernels, and
# the two samples' variances less twice their covariance on the rank-bin route.


def _two_sum(a, b):
    """``a + b`` rounded, and its rounding error, exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """``a * b`` rounded, and its rounding error, exactly (Dekker's split)."""
    p = a * b
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    b_hi = b * 134217729.0
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# relative rounding of a double-double sum of a few thousand terms
_ROUNDING = 2.0**-90


class _Wide:
    """An array of double-double numbers ``hi + lo``."""

    __array_ufunc__ = None  # ndarray operands defer to the reflected methods

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=float)
        self.lo = np.zeros_like(self.hi) if lo is None else lo

    @classmethod
    def of(cls, value) -> _Wide:
        return value if isinstance(value, cls) else cls(value)

    @classmethod
    def _normal(cls, s, e) -> _Wide:
        hi = s + e
        return cls(hi, e - (hi - s))

    def __add__(self, other) -> _Wide:
        other = _Wide.of(other)
        s, e = _two_sum(self.hi, other.hi)
        return _Wide._normal(s, e + (self.lo + other.lo))

    def __mul__(self, other) -> _Wide:
        other = _Wide.of(other)
        p, e = _two_prod(self.hi, other.hi)
        return _Wide._normal(p, e + (self.hi * other.lo + self.lo * other.hi))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> _Wide:
        return _Wide(-self.hi, -self.lo)

    def __sub__(self, other) -> _Wide:
        return self + -_Wide.of(other)

    def __rsub__(self, other) -> _Wide:
        return _Wide.of(other) - self

    def __truediv__(self, other) -> _Wide:
        other = _Wide.of(other)
        quotient = self.hi / other.hi
        rest = self - other * quotient
        return _Wide._normal(quotient, rest.hi / other.hi)

    def __getitem__(self, index) -> _Wide:
        return _Wide(self.hi[index], self.lo[index])

    def cumsum(self) -> _Wide:
        """Inclusive prefix sums: numpy's running sums, corrected by the
        running sum of their exact rounding errors."""
        total = np.cumsum(self.hi)
        _, error = _two_sum(np.concatenate(([0.0], total[:-1])), self.hi)
        return _Wide._normal(total, np.cumsum(error + self.lo))

    def total(self) -> _Wide:
        return self.cumsum()[-1]

    def before(self) -> _Wide:
        """Moved one node up: entry j holds entry j - 1, entry 0 is 0."""
        return _Wide(np.concatenate(([0.0], self.hi[:-1])), np.concatenate(([0.0], self.lo[:-1])))

    def where(self, mask, other) -> _Wide:
        """This where ``mask`` holds, else ``other``."""
        other = _Wide.of(other)
        return _Wide(np.where(mask, self.hi, other.hi), np.where(mask, self.lo, other.lo))

    def value(self) -> np.ndarray:
        return self.hi + self.lo


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


def _transform_cov(kind: Family, d1, d2, pairs, scheme, spec) -> np.ndarray:
    """Covariance kernel of the family's transform under ``scheme``."""
    transform = _lorenz_rows if kind is Family.LORENZ else _min_rows
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
    """Covariance kernel of the Lorenz-difference fluctuation process."""
    _check_scheme(scheme, pairs, d1, d2)
    matrix = _transform_cov(Family.LORENZ, d1, d2, pairs, scheme, spec)
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
    matrix = _transform_cov(Family.INVERSE_SD, d1, d2, pairs, scheme, spec)
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


class _Bins:
    """Per-node sums over the observations of each rank in 0..n_points - 1;
    rank n_points (above every node) is dropped."""

    def __init__(self, ranks: np.ndarray, n_points: int):
        self.order = np.argsort(ranks, kind="stable")
        # the number of observations of rank at most k, for k = -1..n_points - 1
        self.ends = np.searchsorted(ranks[self.order], np.arange(-1, n_points), side="right")

    def sums(self, weights) -> _Wide:
        prefix = _Wide.of(weights)[self.order].cumsum()
        at = prefix[np.maximum(self.ends - 1, 0)].where(self.ends > 0, 0.0)
        return at[1:] - at[:-1]


def _binom(top: np.ndarray, k: int) -> np.ndarray:
    """C(top, k) for integer arrays ``top`` >= -1 (C(-1, 0) = 1), exactly
    while it stays below 2**53."""
    out = np.ones(np.shape(top))
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


class _Hinge:
    """One sample's observations for the rank-bin route, in the coordinates
    of an upward sweep over the nodes.

    Up to a per-node constant, which leaves every variance unchanged, the
    transform at node k, ``a_k x - min(q_k, x)`` (Lorenz: a = lorenz; inverse
    SD: a = 0), is ``a_k x + (q_k - x)+``. ``passes`` upward integration
    passes raise it to ``I(a)_j x + H_j(x)``, where the integrated hinge H of
    an observation is zero before its rank bin r, the number of nodes whose
    quantile is at most x, and linear in x on each bin after it. Mirrored
    (``x -> -x``, nodes backward, ``a -> 1 - a``), the same sweep integrates
    downward. Sums over the observations of H, of ``w H`` for weights w and
    of products of two samples' H are carried from node to node by
    recursions whose inputs are per-bin sums. A pass is ``cumsum * step``
    and a state is zero before its bin, so the level-i state of every
    observation has ``S_i(j) = S_i(j-1) + step S_{i-1}(j)`` at every node j
    for i >= 1: the product sums of levels i, k >= 1 need sums at j alone.
    """

    def __init__(self, x, quant, lorenz, step, passes, mirror):
        slope = _Wide(lorenz)
        if mirror:
            x, quant, slope = -x, -quant[::-1], 1.0 - _Wide(lorenz[::-1])
        self.x = x
        self.quant = quant
        self.slope = slope
        self.step = step
        self.passes = passes
        self.n_points = quant.size
        self.centered = x - _Wide(x).total() / x.size
        self.ranks = np.searchsorted(quant, x, side="right")
        self.bins = _Bins(self.ranks, self.n_points)
        self.rise = _Wide(quant) - np.concatenate(([quant[0]], quant[:-1]))
        # q_r - x > 0 for the observations below the top node
        self.gap = _Wide(quant[np.minimum(self.ranks, self.n_points - 1)]) - x
        # integrals of q - q_0 of each level, and the powers of the step
        self.levels = [_Wide(quant) - quant[0]]
        self.powers = [_Wide(1.0)]
        for _ in range(passes):
            self.levels.append(self.integrate(self.levels[-1], 1))
            self.powers.append(self.powers[-1] * step)

    def integrate(self, values: _Wide, passes: int | None = None) -> _Wide:
        for _ in range(self.passes if passes is None else passes):
            values = values.cumsum() * self.step
        return values

    def state(self, nodes: np.ndarray, level: int) -> _Wide:
        """Each observation's integrated hinge of ``level`` at its node in
        ``nodes``: the rise of q past the bin, carried to the node by
        binomial weights, plus the gap times the integrated ones."""
        lag = nodes - self.ranks
        on = lag >= 0
        lag = np.where(on, lag, 0)
        start = np.where(on, self.ranks, 0)
        out = self.levels[level][np.where(on, nodes, 0)] + (
            _Wide(self.quant[start]) - self.x
        ) * (self.powers[level] * _binom(lag + level, level))
        for s in range(level + 1):
            weight = self.powers[level - s] * _binom(lag - 1 + level - s, level - s)
            out = out - self.levels[s][start] * weight
        return out.where(on, 0.0)

    def weighted(self, weights) -> _Wide:
        """``sum_i weights_i H_j(x_i)`` at every node."""
        inside = self.bins.sums(weights).cumsum()
        base = self.rise * inside.before() + self.bins.sums(self.gap * weights)
        return self.integrate(base.cumsum())

    def cross(self, other: _Hinge) -> _Wide:
        """``sum_i H_j(x_i) H'_j(x'_i)`` at every node, for matched
        observations (``other`` may be ``self``)."""
        a, b, h, passes = self, other, self.step, self.passes
        both = np.maximum(a.ranks, b.ranks)  # the first node where both are on
        joint = _Bins(both, self.n_points)
        top = np.minimum(both, self.n_points - 1)
        gap_a = _Wide(a.quant[top]) - a.x
        gap_b = _Wide(b.quant[top]) - b.x
        count = joint.sums(np.ones(a.x.size)).cumsum()
        # sums of each level's state over the observations on in the other
        seen_a = [(a.rise * count.before() + joint.sums(gap_a)).cumsum()]
        seen_b = [(b.rise * count.before() + joint.sums(gap_b)).cumsum()]
        # per bin of the other sample: the state as the other turns on,
        # alone and times the other's gap (nothing for the sample itself)
        enter_a, enter_b = [None], [None]
        for level in range(1, passes + 1):
            if other is self:
                state_a = state_b = _Wide(np.zeros(a.x.size))
            else:
                state_a, state_b = a.state(b.ranks - 1, level), b.state(a.ranks - 1, level)
            enter_a.append(b.bins.sums(state_a * b.gap))
            enter_b.append(a.bins.sums(state_b * a.gap))
            seen_a.append((b.bins.sums(state_a) + seen_a[-1] * h).cumsum())
            seen_b.append((a.bins.sums(state_b) + seen_b[-1] * h).cumsum())
        # prod[i, k]: the sum of the level-i state times the other's level-k state
        prod = {
            (0, 0): (
                b.rise * seen_a[0].before()
                + a.rise * seen_b[0].before()
                + a.rise * b.rise * count.before()
                + joint.sums(gap_a * gap_b)
            ).cumsum()
        }
        for i in range(1, passes + 1):
            prod[i, 0] = (b.rise * seen_a[i].before() + enter_a[i] + prod[i - 1, 0] * h).cumsum()
            prod[0, i] = (a.rise * seen_b[i].before() + enter_b[i] + prod[0, i - 1] * h).cumsum()
        for i in range(1, passes + 1):
            for k in range(1, passes + 1):
                # P_ik(j) - P_ik(j-1) = h (P_i-1,k + P_i,k-1 - h P_i-1,k-1)(j), at
                # least the subtracted term, as every state is nonnegative
                growth = prod[i - 1, k] + prod[i, k - 1] - prod[i - 1, k - 1] * h
                prod[i, k] = (growth * h).cumsum()
        return prod[passes, passes]


def _scatter(a: _Hinge, b: _Hinge) -> tuple[_Wide, np.ndarray]:
    """``n - 1`` times the sample covariance of two samples' integrated
    transforms over matched observations (``b`` may be ``a``), at every
    node, from ``T_j = I(slope)_j c + H_j`` up to a constant, with ``c`` the
    centered x; and the sum of the magnitudes of its terms."""
    slope_a, slope_b = a.integrate(a.slope), b.integrate(b.slope)
    ones = np.ones(a.x.size)
    mean_a = slope_a * a.centered.total() + a.weighted(ones)
    mean_b = slope_b * b.centered.total() + b.weighted(ones)
    terms = (
        slope_a * slope_b * (a.centered * b.centered).total(),
        slope_a * b.weighted(a.centered),
        slope_b * a.weighted(b.centered),
        a.cross(b),
        -(mean_a * mean_b) / a.x.size,
    )
    return sum(terms[1:], terms[0]), sum(np.abs(term.hi) for term in terms)


def _rank_variance(family, d1, d2, pairs, scheme, spec) -> np.ndarray:
    """Per-node variance of the family's integrated transform under
    ``scheme``, from rank-bin sums (SD from degree 2 up)."""
    nodes = spec.nodes()
    share1 = d1.n / (d1.n + d2.n)
    # the SD kernel is a population covariance, the rank families' a sample one
    ddof = 0 if family.kind is Family.SD else 1
    # the weight of the scatter of samples (i, k) in the variance
    weights = {(0, 0): (1.0 - share1) / (d1.n - ddof), (1, 1): share1 / (d2.n - ddof)}
    values = (d1.sorted_values, d2.sorted_values)
    if scheme is SamplingScheme.MATCHED:
        weights[0, 1] = -2.0 * np.sqrt(share1 * (1.0 - share1)) / (pairs.n - ddof)
        values = (pairs.x1, pairs.x2)
    lorenz = family.kind is Family.LORENZ
    scales = (d1.mean, d2.mean) if lorenz else (1.0, 1.0)
    mirror = family.direction is Direction.DOWN
    passes = family.operator_degree - 1
    zero = np.zeros(spec.n_points)
    if family.kind is Family.SD:
        # p passes of 1{x <= node_k} give step**p C(k - r + p, p) from the
        # first node r >= x on: step times the hinge (k - r + 1)+ in node-index
        # coordinates (exact in floats at any offset of the grid), raised by
        # p - 1 passes; the step goes into the weights, where it may underflow
        index = np.arange(spec.n_points, dtype=float)
        sides = [(np.searchsorted(nodes, x, side="left") - 1.0, index, zero) for x in values]
        passes -= 1
        weights = {key: weight * spec.step * spec.step for key, weight in weights.items()}
    else:
        sides = [
            (x, dist.quantile(nodes), dist.lorenz(nodes) if lorenz else zero)
            for x, dist in zip(values, (d1, d2))
        ]
    sides = [_Hinge(*side, spec.step, passes, mirror) for side in sides]
    var, size = _Wide(0.0), 0.0
    for (i, k), weight in weights.items():
        scatter, magnitude = _scatter(sides[i], sides[k])
        weight = _Wide(weight) / (_Wide(scales[i]) * scales[k])
        var = var + scatter * weight
        size = size + magnitude * np.abs(weight.hi)
    # what is left within the rounding of the terms is zero
    var = np.where(np.abs(var.hi) < _ROUNDING * size, 0.0, var.value())
    return var[::-1] if mirror else var


def std_curve_for(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> GridFunction:
    """Studentization curve for a family: ``std_curve`` of its kernel.

    Every family above SD degree 1 takes the per-node variance of the
    integrated transform from rank-bin sums, at every degree, in both
    directions and under both schemes: O(n log n + p**2 (n + G)) time and
    O(n + p**2 G) memory for p = ``operator_degree - 1`` integration
    passes, with no kernel and no n-by-G block. SD at degree 1 takes the
    diagonal of :func:`sd_kernel` from the CDFs in O(n + G).

    Downward families lose precision where matched pairs nearly coincide:
    on n = 300 tied Pareto pairs with ``x2 = x1 * (1 + 1e-9 * N(0, 1))``
    (every third pair equal) at G = 10**3 the result differs from
    ``std_curve(isd_kernel(...))`` by 2.1e-8 of the largest std for ISD 3
    down (1.9e-7 at another seed) and 3.1e-12 for ISD 3 up; that std is
    5e-10, far below the default ``xi0`` of 1e-3.
    """
    _check_scheme(scheme, pairs, d1, d2)
    # a variance that overflows is not finite, and _std raises
    with np.errstate(over="ignore", invalid="ignore"):
        if family.kind is Family.SD and family.degree == 1:
            var = _sd_variance(d1, d2, pairs, scheme, spec)
        else:
            var = _rank_variance(family, d1, d2, pairs, scheme, spec)
    return _std(spec, var)
