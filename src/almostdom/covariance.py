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
passes by recursions give the variance in O(n log G + p**2 G) time, plus
O(p**2 n) for the cross terms of matched pairs, and O(block + p**2 G) memory
beyond the inputs, p being the number of passes; SD at degree 1 (no pass)
keeps the closed form from the CDFs, O(n + G). The observations are read
once, in blocks of ``_BLOCK``, and each per-bin sum is exact (error-free
extraction, summed by ``np.bincount``) until it is rounded to double-double.
The recursions run in double-double arithmetic: under matched pairs the
variance is the two samples' variances less twice their covariance, which
nearly cancel where the pairs nearly coincide.
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


# Observations are read in blocks of at most this many. A block's float64
# temporaries are 64 KB each, half of glibc's default mmap threshold: they
# reuse heap memory instead of faulting in fresh pages, and stay in L2.
_BLOCK = 8192


def _exact_sums(values: np.ndarray, ranks: np.ndarray, size: int) -> _Wide:
    """Sums of ``values`` by ``ranks`` (bins 0..size-1), exact until their
    slices are added up in double-double, smallest first.

    Error-free extraction (Rump, Ogita and Oishi 2008): with sigma a power
    of two above twice the count times the largest magnitude,
    ``(sigma + v) - sigma`` is v's leading part on a grid so coarse that every
    sum of the slice is exact, and v less its slice is exact too. Slices are
    cut until nothing is left, about three for values of one magnitude. Values
    near the top of the float range are scaled down by a power of two while
    their slice is cut.
    """
    spread = 1 + int(values.size).bit_length()
    slices = []
    rest = values
    while True:
        top = np.max(np.abs(rest), initial=0.0)
        if top == 0.0:
            break
        if not np.isfinite(top):  # an overflow upstream: let it show in the sums
            slices.append(np.bincount(ranks, rest, size))
            break
        exponent = int(np.frexp(top)[1]) + spread
        scale = max(exponent - 1023, 0)  # keeps sigma finite
        sigma = np.ldexp(1.0, exponent - scale)
        cut = (sigma + (np.ldexp(rest, -scale) if scale else rest)) - sigma
        part = np.bincount(ranks, cut, size)
        if scale:
            cut, part = np.ldexp(cut, scale), np.ldexp(part, scale)
        slices.append(part)
        rest = rest - cut
    out = _Wide(np.zeros(size))
    for part in reversed(slices):  # the rounding stays relative to the sum
        out = out + part
    return out


class _Tally:
    """Per-rank sums of block weights, accumulated block by block in
    double-double. A rank runs from 0 to ``n_points``; the top rank, above
    every node, counts in totals only. Each key is summed once per block."""

    def __init__(self, n_points: int):
        self.size = n_points + 1
        self.sums: dict = {}

    def add(self, key, ranks: np.ndarray | None, weights=None) -> None:
        """Add the block's sums of ``weights`` (ones when None) by ``ranks``,
        or their total when ``ranks`` is None."""
        if weights is None:
            part = _Wide(np.bincount(ranks, minlength=self.size).astype(float))
        else:
            weights = _Wide.of(weights)
            size = self.size
            if ranks is None:
                ranks, size = np.zeros(weights.hi.size, dtype=np.intp), 1
            part = _exact_sums(weights.hi, ranks, size) + _exact_sums(weights.lo, ranks, size)
        self.sums[key] = self.sums[key] + part if key in self.sums else part

    def bins(self, key) -> _Wide:
        """The sums of ranks 0..n_points - 1."""
        return self.sums[key][:-1]

    def total(self, key) -> _Wide:
        return self.sums[key].total()


def _binom(top: np.ndarray, k: int) -> np.ndarray:
    """C(top, k) for integer arrays ``top`` >= -1 (C(-1, 0) = 1), exactly
    while it stays below 2**53."""
    out = np.ones(np.shape(top))
    for i in range(k):
        out = out * (top - i) / (i + 1)
    return out


@dataclass(frozen=True, eq=False)
class _Block:
    """One block of a sample's observations, in the sweep coordinates of its
    :class:`_Hinge`: x, its rank bin, ``q_r - x`` at the rank (the top node
    for the top rank), and x less the shift when the slope is not zero."""

    x: np.ndarray
    ranks: np.ndarray
    gap: _Wide
    centered: _Wide | None


class _Hinge:
    """One sample's side of the rank-bin route, in the coordinates of an
    upward sweep over the nodes.

    Up to a per-node constant, which leaves every variance unchanged, the
    transform at node k, ``a_k x - min(q_k, x)`` (Lorenz: a = lorenz; inverse
    SD: a = 0), is ``a_k x + (q_k - x)+``. ``passes`` upward integration
    passes raise it to ``I(a)_j x + H_j(x)``, where the integrated hinge H of
    an observation is zero before its rank bin r, the number of nodes whose
    quantile is at most x, and linear in x on each bin after it. Mirrored
    (``x -> -x``, nodes backward, ``a -> 1 - a``), the same sweep integrates
    downward. Sums over the observations of H, of ``w H`` for weights w and
    of products of two samples' H are carried from node to node by
    recursions whose inputs are per-bin sums, taken in one pass over the
    observations (:func:`_tally`). A pass is ``cumsum * step`` and a state is
    zero before its bin, so the level-i state of every observation has
    ``S_i(j) = S_i(j-1) + step S_{i-1}(j)`` at every node j for i >= 1: the
    product sums of levels i, k >= 1 need sums at j alone.

    ``snap`` (SD) maps x to the index of the last node below it first;
    ``shift`` is subtracted from x where the integrated slope ``I(a)`` is
    not zero, to keep the slope terms small.
    """

    def __init__(self, quant, lorenz, step, passes, mirror, shift=0.0, snap=None):
        slope = _Wide(lorenz)
        if mirror:
            quant, slope, shift = -quant[::-1], 1.0 - _Wide(lorenz[::-1]), -shift
        self.quant = quant
        self.mirror = mirror
        self.shift = shift
        self.snap = snap
        self.step = step
        self.passes = passes
        self.n_points = quant.size
        integrated = self.integrate(slope)
        # the slope terms vanish where the integrated slope is zero
        self.slope = integrated if np.any(integrated.hi) or np.any(integrated.lo) else None
        self.rise = _Wide(quant) - np.concatenate(([quant[0]], quant[:-1]))
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

    def observe(self, x: np.ndarray) -> _Block:
        if self.snap is not None:
            x = np.searchsorted(self.snap, x, side="left") - 1.0
        if self.mirror:
            x = -x
        ranks = np.searchsorted(self.quant, x, side="right")
        gap = _Wide(self.quant[np.minimum(ranks, self.n_points - 1)]) - x
        centered = None if self.slope is None else _Wide(x) - self.shift
        return _Block(x, ranks, gap, centered)

    def state(self, seen: _Block, nodes: np.ndarray, level: int) -> _Wide:
        """Each observation's integrated hinge of ``level`` at its node in
        ``nodes``: the rise of q past the bin, carried to the node by
        binomial weights, plus the gap times the integrated ones."""
        lag = nodes - seen.ranks
        on = lag >= 0
        lag = np.where(on, lag, 0)
        start = np.where(on, seen.ranks, 0)
        out = self.levels[level][np.where(on, nodes, 0)] + (
            _Wide(self.quant[start]) - seen.x
        ) * (self.powers[level] * _binom(lag + level, level))
        for s in range(level + 1):
            weight = self.powers[level - s] * _binom(lag - 1 + level - s, level - s)
            out = out - self.levels[s][start] * weight
        return out.where(on, 0.0)

    def weighted(self, sums: _Wide, gap_sums: _Wide) -> _Wide:
        """``sum_i w_i H_j(x_i)`` at every node, from the per-bin sums of the
        weights w and of the gaps times w."""
        base = self.rise * sums.cumsum().before() + gap_sums
        return self.integrate(base.cumsum())


def _tally(sides: list[_Hinge], columns: list[np.ndarray]) -> _Tally:
    """Every per-bin sum the scatters of ``sides`` need, in one pass over
    their observations ``columns`` (one sample, or the matched pairs).

    Keys: ``(i, name)`` and ``(i, name, k)`` are sums by side i's ranks;
    ``("joint", ...)`` sums by the rank where both sides of a pair are on;
    ``("cc", i, k)`` totals of the products of the centered values.
    """
    tally = _Tally(sides[0].n_points)
    for lo in range(0, columns[0].size, _BLOCK):
        seen = [side.observe(x[lo : lo + _BLOCK]) for side, x in zip(sides, columns)]
        for i, s in enumerate(seen):
            tally.add((i, "count"), s.ranks)
            tally.add((i, "gap"), s.ranks, s.gap)
            tally.add((i, "gap gap"), s.ranks, s.gap * s.gap)
            for k, t in enumerate(seen):
                if t.centered is not None:
                    tally.add((i, "centered", k), s.ranks, t.centered)
                    tally.add((i, "gap centered", k), s.ranks, s.gap * t.centered)
                    if k >= i and s.centered is not None:
                        tally.add(("cc", i, k), None, s.centered * t.centered)
        if len(sides) == 2:
            (a, b), (sa, sb) = sides, seen
            both = np.maximum(sa.ranks, sb.ranks)  # the first node where both are on
            top = np.minimum(both, a.n_points - 1)
            gap_a = _Wide(a.quant[top]) - sa.x
            gap_b = _Wide(b.quant[top]) - sb.x
            tally.add(("joint", "count"), both)
            tally.add(("joint", "gap", 0), both, gap_a)
            tally.add(("joint", "gap", 1), both, gap_b)
            tally.add(("joint", "gap gap"), both, gap_a * gap_b)
            # each side's state as the other turns on, by the other's rank,
            # alone and times the other's gap
            for level in range(1, a.passes + 1):
                state_a = a.state(sa, sb.ranks - 1, level)
                state_b = b.state(sb, sa.ranks - 1, level)
                tally.add((1, "state", level), sb.ranks, state_a)
                tally.add((1, "state gap", level), sb.ranks, state_a * sb.gap)
                tally.add((0, "state", level), sa.ranks, state_b)
                tally.add((0, "state gap", level), sa.ranks, state_b * sa.gap)
    return tally


def _cross(sides: list[_Hinge], tally: _Tally, i: int, k: int) -> _Wide:
    """``sum_i H_j(x_i) H'_j(x'_i)`` at every node over the observations of
    sides i and k (matched pairs, or k = i)."""
    a, b, h, passes = sides[i], sides[k], sides[i].step, sides[i].passes
    if i == k:
        count = tally.bins((i, "count")).cumsum()
        joint_a = joint_b = tally.bins((i, "gap"))
        joint_ab = tally.bins((i, "gap gap"))
    else:
        count = tally.bins(("joint", "count")).cumsum()
        joint_a, joint_b = tally.bins(("joint", "gap", i)), tally.bins(("joint", "gap", k))
        joint_ab = tally.bins(("joint", "gap gap"))
    # sums of each level's state over the observations on in the other
    seen_a = [(a.rise * count.before() + joint_a).cumsum()]
    seen_b = [(b.rise * count.before() + joint_b).cumsum()]
    # per bin of the other sample: the state as the other turns on, alone
    # and times the other's gap (nothing for the sample itself)
    enter_a, enter_b = [None], [None]
    for level in range(1, passes + 1):
        if i == k:
            state_a = state_b = 0.0
            enter_a.append(0.0)
            enter_b.append(0.0)
        else:
            state_a, state_b = tally.bins((k, "state", level)), tally.bins((i, "state", level))
            enter_a.append(tally.bins((k, "state gap", level)))
            enter_b.append(tally.bins((i, "state gap", level)))
        seen_a.append((seen_a[-1] * h + state_a).cumsum())
        seen_b.append((seen_b[-1] * h + state_b).cumsum())
    # prod[i, k]: the sum of the level-i state times the other's level-k state
    prod = {
        (0, 0): (
            b.rise * seen_a[0].before()
            + a.rise * seen_b[0].before()
            + a.rise * b.rise * count.before()
            + joint_ab
        ).cumsum()
    }
    for m in range(1, passes + 1):
        prod[m, 0] = (b.rise * seen_a[m].before() + enter_a[m] + prod[m - 1, 0] * h).cumsum()
        prod[0, m] = (a.rise * seen_b[m].before() + enter_b[m] + prod[0, m - 1] * h).cumsum()
    for m in range(1, passes + 1):
        for l in range(1, passes + 1):
            # P_ml(j) - P_ml(j-1) = h (P_m-1,l + P_m,l-1 - h P_m-1,l-1)(j), at
            # least the subtracted term, as every state is nonnegative
            growth = prod[m - 1, l] + prod[m, l - 1] - prod[m - 1, l - 1] * h
            prod[m, l] = (growth * h).cumsum()
    return prod[passes, passes]


def _scatter(
    sides: list[_Hinge], tally: _Tally, i: int, k: int, n: int
) -> tuple[_Wide, np.ndarray]:
    """``n - 1`` times the sample covariance of sides i and k's integrated
    transforms over matched observations (k may be i), at every node, from
    ``T_j = I(slope)_j c + H_j`` up to a constant, with ``c`` the shifted
    x; and the sum of the magnitudes of its terms. A slope that is zero drops
    its terms."""
    a, b = sides[i], sides[k]
    mean_a = a.weighted(tally.bins((i, "count")), tally.bins((i, "gap")))
    mean_b = b.weighted(tally.bins((k, "count")), tally.bins((k, "gap")))
    terms = []
    if a.slope is not None:
        mean_a = mean_a + a.slope * tally.total((i, "centered", i))
    if b.slope is not None:
        mean_b = mean_b + b.slope * tally.total((k, "centered", k))
    if a.slope is not None and b.slope is not None:
        terms.append(a.slope * b.slope * tally.total(("cc", min(i, k), max(i, k))))
    if a.slope is not None:
        centered = tally.bins((k, "centered", i)), tally.bins((k, "gap centered", i))
        terms.append(a.slope * b.weighted(*centered))
    if b.slope is not None:
        centered = tally.bins((i, "centered", k)), tally.bins((i, "gap centered", k))
        terms.append(b.slope * a.weighted(*centered))
    terms.append(_cross(sides, tally, i, k))
    terms.append(-(mean_a * mean_b) / n)
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
    matched = scheme is SamplingScheme.MATCHED
    columns = [d1.sorted_values, d2.sorted_values]
    if matched:
        weights[0, 1] = -2.0 * np.sqrt(share1 * (1.0 - share1)) / (pairs.n - ddof)
        columns = [pairs.x1, pairs.x2]
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
        sides = [_Hinge(index, zero, spec.step, passes - 1, mirror, snap=nodes) for _ in range(2)]
        weights = {key: weight * spec.step * spec.step for key, weight in weights.items()}
    else:
        sides = [
            _Hinge(
                dist.quantile(nodes), dist.lorenz(nodes) if lorenz else zero,
                spec.step, passes, mirror, shift=dist.mean,
            )
            for dist in (d1, d2)
        ]
    if matched:
        tally = _tally(sides, columns)
        scatters = {key: _scatter(sides, tally, *key, pairs.n) for key in weights}
    else:
        scatters = {
            (i, i): _scatter([side], _tally([side], [x]), 0, 0, x.size)
            for i, (side, x) in enumerate(zip(sides, columns))
        }
    var, size = _Wide(0.0), 0.0
    for (i, k), weight in weights.items():
        scatter, magnitude = scatters[i, k]
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
    directions and under both schemes: O(n log G + p**2 G) time, plus
    O(p**2 n) under matched pairs, and O(block + p**2 G) memory beyond the
    inputs for p = ``operator_degree - 1`` integration passes, with no
    kernel and no n-by-G block. The observations are read once, in blocks.
    SD at degree 1 takes the diagonal of :func:`sd_kernel` from the CDFs in
    O(n + G).

    Downward families lose precision where matched pairs nearly coincide:
    on n = 300 tied Pareto pairs with ``x2 = x1 * (1 + 1e-9 * N(0, 1))``
    (every third pair equal) at G = 10**3 the result differs from
    ``std_curve(isd_kernel(...))`` by 1e-9 to 1.9e-8 of the largest std
    for ISD 3 down and by at most 2.9e-12 for ISD 3 up, over ten seeds;
    that std is about 5e-10, far below the default ``xi0`` of 1e-3.
    """
    _check_scheme(scheme, pairs, d1, d2)
    # a variance that overflows is not finite, and _std raises; so is one
    # whose Lorenz weight divides by sample means that multiply to zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family.kind is Family.SD and family.degree == 1:
            var = _sd_variance(d1, d2, pairs, scheme, spec)
        else:
            var = _rank_variance(family, d1, d2, pairs, scheme, spec)
    return _std(spec, var)
