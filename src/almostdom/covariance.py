"""Studentization curves.

Each dominance family has a limiting Gaussian fluctuation process for its
estimated base curve. Contact sets are studentized by the pointwise
standard deviation of that process pushed through the family's
iterated-integration operator, which :func:`std_curve_for` computes for
every family.

For the rank-based families the process's covariance is a sample
covariance of per-observation transforms:

* Lorenz: ``(lorenz(p) * x - min(quantile(p), x)) / mean``
* inverse SD: ``min(quantile(p), x)``

Matched pairs combine the two samples' transforms per pair (the second
sample's transform weighted by +sqrt(share1), the first's by
-sqrt(share2), where share_j is sample j's size share) and take one
sample covariance, which equals the four-term mixture of within- and
cross-sample covariances. The stochastic-dominance covariance comes from
the empirical (joint) CDFs.

The dense reference kernels built from n-by-G transform blocks, and the
route that integrates a kernel along both axes, live with the tests
(``tests/reference.py``). Studentization needs only the diagonal of the
integrated kernel, and :func:`std_curve_for` computes it without any
n-by-G or G-by-G array. For the rank-based families a transform depends
on x only through its rank bin r (the number of nodes whose quantile is at
most x) and is linear in x inside a bin (the integrated-CDF
representation of Davidson and Duclos, 2000). The SD
transform after p >= 1 passes depends on x through its bin alone: it is
the same hinge in node-index coordinates. Per-bin sums carried through the
integration passes by recursions give the variance in O(n log G + p**2 G)
time, plus O(p**2 n) for the cross terms of matched pairs, and
O(block + p**2 G) memory beyond the inputs, p being the number of passes;
SD at degree 1 (no pass) keeps the closed form from the CDFs, O(n + G).
The observations are read once, in blocks of ``rng._BLOCK``, and each
per-bin sum is exact (error-free extraction, summed by ``np.bincount``)
until it is rounded to double-double. The recursions run in double-double
arithmetic: under matched pairs the variance is the two samples' variances
less twice their covariance, which nearly cancel where the pairs nearly
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import GridFunction, GridSpec, _member
from .coefficients import Direction, DominanceFamily, Family
from .empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from .errors import InvalidConfigError, NumericOverflowError, SchemeMismatchError
from .rng import _BLOCK

__all__ = ["std_curve_for"]


def _check_scheme(scheme, pairs, d1, d2) -> None:
    """Check that ``scheme`` is a :class:`SamplingScheme` member or names one,
    and that the data fit it: matched pairs take the :class:`PairedSample` of
    ``d1`` and ``d2``, independent samples take ``pairs`` None."""
    scheme = _member(SamplingScheme, scheme)
    if scheme is SamplingScheme.MATCHED:
        if pairs is None:
            raise SchemeMismatchError("the matched scheme needs the paired sample")
        if pairs.n != d1.n or pairs.n != d2.n:
            raise SchemeMismatchError(
                "paired sample size differs from the marginal distributions"
            )
    elif pairs is not None:
        raise SchemeMismatchError("independent scheme does not take a paired sample")


# Double-double arithmetic, about 32 significant digits. Under matched pairs
# the studentization variance is a small difference of large terms where the
# pairs nearly coincide: the two samples' variances less twice their
# covariance.


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
        """Inclusive prefix sums along the last axis: numpy's running sums,
        corrected by the running sum of their exact rounding errors."""
        total = np.cumsum(self.hi, axis=-1)
        before = np.concatenate((np.zeros_like(total[..., :1]), total[..., :-1]), axis=-1)
        _, error = _two_sum(before, self.hi)
        return _Wide._normal(total, np.cumsum(error + self.lo, axis=-1))

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


def _std(spec: GridSpec, var: np.ndarray) -> GridFunction:
    if not np.all(np.isfinite(var)):
        raise NumericOverflowError("studentization variance overflows the float range")
    return GridFunction(spec, np.sqrt(np.maximum(var, 0.0)))


def _sd_variance(d1, d2, pairs, spec) -> np.ndarray:
    """Per-node variance of the SD fluctuation process at degree 1, from the
    CDFs in O(n + G): the diagonal of the dense SD kernel (``sd_kernel`` in
    ``tests/reference.py``)."""
    nodes = spec.nodes()
    share1 = d1.n / (d1.n + d2.n)
    f1 = d1.cdf(nodes)
    f2 = d2.cdf(nodes)
    var = (1.0 - share1) * f1 * (1.0 - f1) + share1 * f2 * (1.0 - f2)
    if pairs is not None:
        both_below = np.sort(np.maximum(pairs.x1, pairs.x2))
        joint_diag = np.searchsorted(both_below, nodes, side="right") / pairs.n
        var -= 2.0 * np.sqrt(share1 * (1.0 - share1)) * (joint_diag - f1 * f2)
    return var


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

    def bins(self, key) -> _Wide | float:
        """The sums of ranks 0..n_points - 1; a sample's own state keys read 0."""
        own_state = key not in self.sums and key[0] == key[1] and key[2].startswith("state")
        return 0.0 if own_state else self.sums[key][:-1]

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
    not zero, to keep the slope terms small. x, the quantiles and the shift
    are scaled by ``2**exponent``, exactly.
    """

    def __init__(self, quant, lorenz, step, passes, mirror, shift=0.0, snap=None, exponent=0):
        quant, shift = np.ldexp(quant, exponent), np.ldexp(shift, exponent)
        self.exponent = exponent
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
        x = np.ldexp(x, self.exponent)
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


def _tally(sides: list[_Hinge], d1, d2, pairs) -> _Tally:
    """Every per-bin sum the scatters of ``sides`` need, in one pass over
    the observations: the matched pairs together, or each independent
    sample over its own length.

    Each key is ``(i, k, name, ...)``, a sum over the pairs of sides i and
    k, with a sample's own sums under ``(i, i, ...)``. ``count``, ``gap``
    (side i's) and ``gap gap`` sum by the rank where both sides are on;
    ``centered`` and ``gap centered`` (side i's gap) sum side k's centered
    values by side i's ranks; ``cc`` totals the products of the centered
    values (k >= i); ``state`` and ``state gap`` sum side i's state as side
    k turns on, alone and times k's gap, by k's ranks. A sample carries no
    state over from itself: ``(i, i, "state", ...)`` is never added.
    """
    tally = _Tally(sides[0].n_points)
    columns = (d1.sorted_values, d2.sorted_values) if pairs is None else (pairs.x1, pairs.x2)
    for group in ((0,), (1,)) if pairs is None else ((0, 1),):
        for lo in range(0, columns[group[0]].size, _BLOCK):
            seen = {i: sides[i].observe(columns[i][lo : lo + _BLOCK]) for i in group}
            for i, s in seen.items():
                tally.add((i, i, "count"), s.ranks)
                tally.add((i, i, "gap"), s.ranks, s.gap)
                tally.add((i, i, "gap gap"), s.ranks, s.gap * s.gap)
                for k, t in seen.items():
                    if t.centered is not None:
                        tally.add((i, k, "centered"), s.ranks, t.centered)
                        tally.add((i, k, "gap centered"), s.ranks, s.gap * t.centered)
                        if k >= i and s.centered is not None:
                            tally.add((i, k, "cc"), None, s.centered * t.centered)
            if len(seen) == 2:
                (a, b), (sa, sb) = sides, seen.values()
                both = np.maximum(sa.ranks, sb.ranks)  # the first node where both are on
                top = np.minimum(both, a.n_points - 1)
                gap_a = _Wide(a.quant[top]) - sa.x
                gap_b = _Wide(b.quant[top]) - sb.x
                tally.add((0, 1, "count"), both)
                tally.add((0, 1, "gap"), both, gap_a)
                tally.add((1, 0, "gap"), both, gap_b)
                tally.add((0, 1, "gap gap"), both, gap_a * gap_b)
                for level in range(1, a.passes + 1):
                    state_a = a.state(sa, sb.ranks - 1, level)
                    state_b = b.state(sb, sa.ranks - 1, level)
                    tally.add((0, 1, "state", level), sb.ranks, state_a)
                    tally.add((0, 1, "state gap", level), sb.ranks, state_a * sb.gap)
                    tally.add((1, 0, "state", level), sa.ranks, state_b)
                    tally.add((1, 0, "state gap", level), sa.ranks, state_b * sa.gap)
    return tally


def _cross(sides: list[_Hinge], tally: _Tally, i: int, k: int) -> _Wide:
    """``sum_i H_j(x_i) H'_j(x'_i)`` at every node over the observations of
    sides i and k (matched pairs, or k = i), from the keys ``(i, k, ...)``
    and ``(k, i, ...)`` of :func:`_tally`; for k = i no state key was ever
    added (a sample carries no state over from itself), and each reads 0."""
    a, b, h, passes = sides[i], sides[k], sides[i].step, sides[i].passes
    count = tally.bins((i, k, "count")).cumsum()
    joint_a, joint_b = tally.bins((i, k, "gap")), tally.bins((k, i, "gap"))
    joint_ab = tally.bins((i, k, "gap gap"))
    # sums of each level's state over the observations on in the other
    seen_a = [(a.rise * count.before() + joint_a).cumsum()]
    seen_b = [(b.rise * count.before() + joint_b).cumsum()]
    # per bin of the other sample: the state as the other turns on, alone
    # and times the other's gap (0 for the sample itself)
    enter_a, enter_b = [None], [None]
    for level in range(1, passes + 1):
        state_a, state_b = tally.bins((i, k, "state", level)), tally.bins((k, i, "state", level))
        enter_a.append(tally.bins((i, k, "state gap", level)))
        enter_b.append(tally.bins((k, i, "state gap", level)))
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
    its terms. The means read each side's own keys ``(i, i, ...)``, the
    products the pair's ``(i, k, ...)`` and ``(k, i, ...)`` of :func:`_tally`."""
    a, b = sides[i], sides[k]
    mean_a = a.weighted(tally.bins((i, i, "count")), tally.bins((i, i, "gap")))
    mean_b = b.weighted(tally.bins((k, k, "count")), tally.bins((k, k, "gap")))
    if a.slope is not None:
        mean_a = mean_a + a.slope * tally.total((i, i, "centered"))
    if b.slope is not None:
        mean_b = mean_b + b.slope * tally.total((k, k, "centered"))
    terms = []
    if a.slope is not None and b.slope is not None:
        terms.append(a.slope * b.slope * tally.total((i, k, "cc")))
    if a.slope is not None:
        centered = tally.bins((k, i, "centered")), tally.bins((k, i, "gap centered"))
        terms.append(a.slope * b.weighted(*centered))
    if b.slope is not None:
        centered = tally.bins((i, k, "centered")), tally.bins((i, k, "gap centered"))
        terms.append(b.slope * a.weighted(*centered))
    terms += [_cross(sides, tally, i, k), -(mean_a * mean_b) / n]
    total, size = _Wide(0.0), 0.0
    for term in terms:
        total, size = total + term, size + np.abs(term.hi)
    return total, size


def _rank_variance(family, d1, d2, pairs, spec) -> np.ndarray:
    """Per-node variance of the family's integrated transform, from rank-bin
    sums (SD from degree 2 up)."""
    nodes = spec.nodes()
    share1 = d1.n / (d1.n + d2.n)
    # the SD kernel is a population covariance, the rank families' a sample one
    ddof = 0 if family.kind is Family.SD else 1
    # the weight of the scatter of samples (i, k) in the variance
    weights = {(0, 0): (1.0 - share1) / (d1.n - ddof), (1, 1): share1 / (d2.n - ddof)}
    if pairs is not None:
        weights[0, 1] = -2.0 * np.sqrt(share1 * (1.0 - share1)) / (pairs.n - ddof)
    lorenz = family.kind is Family.LORENZ
    # the Lorenz transform is scale-free: each sample is scaled by a power of
    # two, exactly, to a mean of order 1, so that no product of values overflows
    exponents = [-int(np.frexp(dist.mean)[1]) if lorenz else 0 for dist in (d1, d2)]
    scales = [np.ldexp(d.mean, e) if lorenz else 1.0 for d, e in zip((d1, d2), exponents)]
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
                spec.step, passes, mirror, shift=dist.mean, exponent=e,
            )
            for dist, e in zip((d1, d2), exponents)
        ]
    tally = _tally(sides, d1, d2, pairs)
    var, size = _Wide(0.0), 0.0
    for (i, k), weight in weights.items():
        # k > i only under matched pairs, where both samples have n = d1.n
        scatter, magnitude = _scatter(sides, tally, i, k, (d1.n, d2.n)[i])
        weight = _Wide(weight) / (_Wide(scales[i]) * scales[k])
        var = var + scatter * weight
        size = size + magnitude * np.abs(weight.hi)
    # what is left within the rounding of the terms is zero
    var = np.where(np.abs(var.hi) < _ROUNDING * size, 0.0, var.value())
    return var[::-1] if mirror else var


def _std_curve(family, d1, d2, pairs, spec) -> GridFunction:
    """:func:`std_curve_for` of data whose scheme is checked (matched pairs
    when ``pairs`` is given): the square root of :func:`_sd_variance` or
    :func:`_rank_variance`."""
    if d1.n < 2 or d2.n < 2:
        raise InvalidConfigError("covariance estimation needs at least 2 observations")
    # a variance that overflows is not finite, and _std raises; so is one
    # whose Lorenz weight divides by sample means that multiply to zero
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if family.kind is Family.SD and family.degree == 1:
            return _std(spec, _sd_variance(d1, d2, pairs, spec))
        return _std(spec, _rank_variance(family, d1, d2, pairs, spec))


def std_curve_for(
    family: DominanceFamily,
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    scheme: SamplingScheme,
    spec: GridSpec,
) -> GridFunction:
    """Studentization curve for a family: the pointwise standard deviation
    of its fluctuation process raised by the family's integration passes
    (``std_curve`` of the family's dense kernel in ``tests/reference.py``).
    ``scheme`` is a :class:`SamplingScheme` or its value, checked against
    ``pairs`` (see :func:`_check_scheme`).

    Every family above SD degree 1 takes the per-node variance of the
    integrated transform from rank-bin sums, at every degree, in both
    directions and under both schemes: O(n log G + p**2 G) time, plus
    O(p**2 n) under matched pairs, and O(block + p**2 G) memory beyond the
    inputs for p = ``operator_degree - 1`` integration passes, with no
    kernel and no n-by-G block. The observations are read once, in blocks.
    SD at degree 1 takes the diagonal of the dense SD kernel from the CDFs
    in O(n + G).

    Downward families lose precision where matched pairs nearly coincide:
    on n = 300 tied Pareto pairs with ``x2 = x1 * (1 + 1e-9 * N(0, 1))``
    (every third pair equal) at G = 10**3 the result differs from the
    reference ``std_curve(isd_kernel(...))`` by 1e-9 to 1.9e-8 of the
    largest std for ISD 3 down and by at most 2.9e-12 for ISD 3 up, over
    ten seeds; that std is about 5e-10, far below the default ``xi0`` of
    1e-3. A variance within 2**-90 of the magnitude of its terms reads 0: on
    matched pairs ``x1 = (1, 2, 3)``, ``x2 = (1, 2, nextafter(3, 4))`` at
    G = 2, Lorenz 1 gives stds of 0 where the dense kernel gives about 3e-17.
    """
    _check_scheme(scheme, pairs, d1, d2)
    return _std_curve(family, d1, d2, pairs, spec)

