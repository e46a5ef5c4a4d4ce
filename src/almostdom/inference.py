"""Contact sets, the directional derivative, and the bootstrap interval.

The area-ratio map is not linear at difference curves that touch zero, so
the usual bootstrap of the coefficient itself is inconsistent. Instead,
bootstrap fluctuations of the difference curve are pushed through an
estimate of the map's directional derivative:

1. classify every grid node by the studentized curve
   ``sqrt(effective_n) * diff / max(std, xi0)`` against the threshold
   ``t_n`` (above, below, or within: the estimated contact set);
2. resample the data, rebuild the difference curve, and evaluate the
   derivative at ``sqrt(effective_n) * (resampled - original)``;
3. read confidence bounds off the quantiles of those derivative draws:
   ``[c_hat - q_hi / sqrt(effective_n), c_hat - q_lo / sqrt(effective_n)]``.

The studentization curve and the contact sets come from the original
sample and are held fixed across replicates. Replicate b draws from the
stream keyed (seed, b), so runs are reproducible and order-independent.
A bootstrap derives the states of all its streams at once and draws
each resample from its stream's raw words (see :mod:`almostdom.rng`).

Replicates are drawn and folded in chunks. A resample is a row of
positions among the order statistics of each sample. Away from the
contact set the derivative is linear in the fluctuation, so its sums over
the plus and minus nodes are weighted sums over the resample, with
per-observation weights worked out once per bootstrap for every
contact-set estimate (:class:`_Weights`): for the SD family the weights of
the drawn positions are summed, for the others the resample is sorted
and its values weighted. Each sample's sums of the sample itself, taken
once by the same code, are subtracted, so a resample equal to the sample
gives exactly 0 there. Curve values are built only where the one-sided
parts need them, at the zero nodes, and only when some estimate has one:
one prefix reader sums the sorted values (or the counts of positions) in
segments up to the nodes, or at many nodes in one running sum (see
:func:`_cut`), and reads them at the zero nodes at operator degree 1, at
every node above it, where the curves are then integrated. Each chunk is
turned into derivative draws at once, so memory is bounded by the chunk
and does not grow with the number of replicates; every reduction over a
row gives the same result whatever the number of rows in its chunk. A
chunk holds ``2**15 // max(n, G)`` rows, so that each of its arrays stays
within 256 KB and its working set within a 2 MB L2 cache, but at least 2
rows. Each stage takes the arrays it writes by name from a
:class:`~almostdom.rng.Scratch`, which allocates a buffer only when a name
is asked for more values than it holds, so later chunks reuse the first
one's pages. The caller that runs the replicates passes it in, as their
shared state (``_Prepared``) is read-only: :func:`bootstrap_ci` makes one,
and the bootstraps of one coverage study share one. The exception is the
SD family's count of positions, which ``np.bincount`` allocates in a chunk
with zero nodes. A replicate is used when its draw is finite; a Lorenz
resample without a positive, finite mean gives a NaN draw, so it is
dropped too. ``n_boot_effective`` counts the replicates used.

Stages 1-3 are one interval step (:func:`_intervals`), shared by
:func:`bootstrap_ci` and the coverage studies: threshold calibration
(resamples of the observed data, every candidate threshold) and the
Monte Carlo study in :mod:`almostdom.simulation` (draws from the laws,
one threshold) run the same study replicate (:func:`_study_replicate`).
Study replicate r draws its data from the stream keyed (seed, r, 0) and
bootstraps it from a seed derived at (seed, r, 1); it fails, and is
counted, when its curves coincide, its Lorenz sample has no positive
mean, its sums overflow, or its bootstrap leaves no usable draw. The
bootstrap chunks and the study replicates all fan out through one
order-preserving map (:func:`_ordered_map`), serial or over a process
pool, with identical results either way; the pool's modules are imported
only when a pool starts, so a serial run never loads them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .calculus import GridFunction, GridSpec, _count, _integer, _member, _node_sums, _real
from .coefficients import CoefficientEstimate, DominanceFamily, Family, coefficient
from .covariance import _std_curve
from .empirical import (
    EmpiricalDistribution,
    PairedSample,
    SamplingScheme,
    build_empirical,
    cum_quantile_at,
    quantile_positions,
)
from .errors import (
    DegenerateCurvesError,
    DomainError,
    GridMismatchError,
    InvalidConfigError,
    NonFiniteDrawError,
    NumericOverflowError,
    SchemeMismatchError,
    ZeroMeanError,
)
from .rng import Scratch, child_rng, child_seed, draw_integers, stream_states

__all__ = [
    "InferenceConfig",
    "ContactSets",
    "BootstrapResult",
    "TuningTable",
    "contact_sets",
    "derivative",
    "bootstrap_ci",
    "tuning_table",
    "select_tuning",
]

# replicates per chunk are sized so that each per-chunk array holds at most
# this many values, 256 KB of float64, and a chunk's working set stays in a
# 2 MB L2 cache; a chunk holds at least 2 rows. The arrays live in the
# bootstrap's scratch (rng.Scratch), which allocates each once, so their size
# does not matter to the allocator: above glibc's 128 KB mmap threshold,
# arrays allocated per chunk would fault in fresh pages for every chunk.
_CHUNK_BUDGET = 1 << 15


@dataclass(frozen=True)
class InferenceConfig:
    """Settings for contact-set estimation and the bootstrap.

    ``t_n`` is the studentized threshold separating "clearly signed" nodes
    from the estimated contact set; it must grow with the sample (slower
    than sqrt(effective_n)) for the asymptotics, and is a finite-sample
    tuning choice here (see :func:`select_tuning`). ``xi0`` bounds the
    studentization away from zero. Both must be positive and finite. A
    bootstrap replicate that gives no draw (a Lorenz resample without a
    positive mean, or a draw that is not finite) is dropped, so
    ``n_boot_effective`` may fall below ``n_boot``.
    """

    t_n: float
    seed: int
    xi0: float = 0.001
    n_boot: int = 1000
    alpha: float = 0.05
    clamp_to_unit: bool = True

    def __post_init__(self):
        if not 0 < _real("t_n", self.t_n) < np.inf:
            raise InvalidConfigError(f"t_n must be positive and finite, got {self.t_n}")
        if not 0 < _real("xi0", self.xi0) < np.inf:
            raise InvalidConfigError(f"xi0 must be positive and finite, got {self.xi0}")
        _count("n_boot", self.n_boot)
        if not 0.0 < _real("alpha", self.alpha) < 0.5:
            raise InvalidConfigError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        seed = _integer("seed", self.seed)
        if not 0 <= seed < 2**64:
            raise InvalidConfigError(f"seed must fit in 64 unsigned bits, got {seed}")


@dataclass(frozen=True, eq=False)
class ContactSets:
    """Node classification: clearly positive, clearly negative, or near zero.

    The three masks partition the grid; ``t_n`` and ``xi0`` record the
    threshold and trim that produced them.
    """

    plus: np.ndarray
    minus: np.ndarray
    zero: np.ndarray
    t_n: float | None = None
    xi0: float | None = None

    def __post_init__(self):
        if not (self.plus.shape == self.minus.shape == self.zero.shape):
            raise DomainError("contact-set masks must share one shape")
        overlap = (
            self.plus.astype(int) + self.minus.astype(int) + self.zero.astype(int)
        )
        if not np.all(overlap == 1):
            raise DomainError("contact-set masks must partition the grid")

    @property
    def n_points(self) -> int:
        return self.plus.size

    @cached_property
    def _indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node indices of the plus, minus and zero sets, found once."""
        return tuple(np.flatnonzero(mask) for mask in (self.plus, self.minus, self.zero))


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Coefficient estimate with bootstrap quantiles and confidence interval.

    ``std`` is the studentization curve behind the contact sets, and
    ``plus_nodes``, ``minus_nodes`` and ``zero_nodes`` count the grid nodes
    in each of them. ``boundary`` flags estimates sitting exactly at 0 or
    1, where the interval theory does not apply; the clamped interval is
    still returned.
    """

    estimate: CoefficientEstimate
    std: GridFunction
    draws: np.ndarray
    q_lo: float
    q_hi: float
    ci: tuple[float, float]
    n_boot_effective: int
    seed: int
    boundary: bool
    plus_nodes: int
    minus_nodes: int
    zero_nodes: int


def contact_sets(
    diff: GridFunction,
    std: GridFunction,
    effective_n: float,
    cfg: InferenceConfig,
) -> ContactSets:
    """Classify grid nodes by the studentized difference curve."""
    if diff.spec != std.spec:
        raise GridMismatchError("difference and studentization curves differ in grid")
    if not effective_n > 0:
        raise InvalidConfigError(f"effective_n must be positive, got {effective_n}")
    # a node far past the threshold may overflow to +-inf, which still classifies
    with np.errstate(over="ignore"):
        scaled = np.sqrt(effective_n) * diff.values / np.maximum(std.values, cfg.xi0)
    plus = scaled > cfg.t_n
    minus = scaled < -cfg.t_n
    zero = ~(plus | minus)
    return ContactSets(plus=plus, minus=minus, zero=zero, t_n=cfg.t_n, xi0=cfg.xi0)


def _area_sums(diff: GridFunction) -> tuple[float, float, float]:
    """Unscaled node sums ``(pos, neg, pos + neg)`` of ``diff`` (see
    :func:`~almostdom.calculus.area_ratio`), at which the ratio is
    differentiated."""
    pos, neg = _node_sums(diff.values)
    total = pos + neg
    if total == np.inf:
        raise NumericOverflowError("curve area overflows the float range")
    if total == 0.0:
        raise DegenerateCurvesError("cannot differentiate at a vanishing curve")
    return pos, neg, total


def _derivative_rows(
    h_rows: np.ndarray, sets: ContactSets, sums: tuple[float, float, float]
) -> np.ndarray:
    """Directional derivative of the area ratio for each row of ``h_rows``,
    at the curve whose :func:`_area_sums` are ``sums``."""
    plus, minus, zero = sets._indices
    zero_part = h_rows[:, zero]
    d_pos = h_rows[:, plus].sum(axis=1) + np.maximum(zero_part, 0.0).sum(axis=1)
    d_neg = -h_rows[:, minus].sum(axis=1) + np.maximum(-zero_part, 0.0).sum(axis=1)
    return _quotient(d_pos, d_neg, sums)


def _quotient(d_pos, d_neg, sums: tuple[float, float, float]):
    """The quotient rule of the area ratio ``pos / total`` at the node sums
    ``(pos, neg, total)`` of ``sums``: ``(d_pos * neg - pos * d_neg) /
    total**2``, where ``d_pos`` and ``d_neg`` are the directional
    derivatives of ``pos`` and ``neg``."""
    pos, neg, total = sums
    # total**2 would turn subnormal once the sums fall below about 1.5e-154
    return (d_pos * (neg / total) - (pos / total) * d_neg) / total


def derivative(h: GridFunction, sets: ContactSets, diff: GridFunction) -> float:
    """Estimated directional derivative of the area-ratio map at ``diff``.

    Clearly positive nodes contribute ``h`` linearly, clearly negative
    nodes ``-h``, and contact-set nodes the one-sided parts ``max(+-h, 0)``;
    the two pieces combine through the quotient rule of the ratio.
    Positively homogeneous in ``h`` of degree one.
    """
    if h.spec != diff.spec:
        raise GridMismatchError("direction and difference curves differ in grid")
    if sets.n_points != diff.spec.n_points:
        raise GridMismatchError("contact sets sized for a different grid")
    return float(_derivative_rows(h.values[None, :], sets, _area_sums(diff))[0])


def _inf_quantile(ordered: np.ndarray, beta: float) -> float:
    """Smallest of the ascending values ``ordered`` whose empirical CDF
    reaches ``beta`` (the ceil(beta * B)-th order statistic)."""
    k = int(np.ceil(beta * ordered.size))
    k = min(max(k, 1), ordered.size)
    return float(ordered[k - 1])


def _distributions(data):
    """``(d1, d2, pairs)`` of a :class:`PairedSample`, or of a pair of
    samples with ``pairs`` None: the two empirical distributions."""
    if isinstance(data, PairedSample):
        return EmpiricalDistribution(data.x1), EmpiricalDistribution(data.x2), data
    first, second = data
    return build_empirical(first), build_empirical(second), None


def _unpack(data, scheme: SamplingScheme):
    """``(d1, d2, pairs)`` of the data of a public entry, under ``scheme``, a
    :class:`SamplingScheme` member or its value: converted here once and
    checked against ``data``. Below this point matched means ``pairs`` is
    not None."""
    if _member(SamplingScheme, scheme) is SamplingScheme.MATCHED:
        if not isinstance(data, PairedSample):
            raise SchemeMismatchError("matched scheme needs a PairedSample")
        return _distributions(data)
    if isinstance(data, PairedSample):
        raise SchemeMismatchError("independent scheme takes two separate samples")
    try:
        first, second = data
    except (TypeError, ValueError) as exc:
        raise SchemeMismatchError(
            "independent scheme needs a (sample, sample) pair"
        ) from exc
    return _distributions((first, second))


@dataclass(frozen=True, eq=False)
class _Side:
    """One sample as the replicate engine reads its resamples.

    A resample is a row of positions among ``sorted_values``. Under the
    independent scheme the drawn indices already are positions; matched
    pairs draw pair indices, which ``rank`` maps to positions. ``k``,
    ``at`` and ``frac`` fix where the base curve is read at the grid nodes:
    the integrated quantile's positions (see
    :func:`~almostdom.empirical.quantile_positions`). For the SD family
    ``k`` counts the order statistics at or below each node, ``at`` is
    ``min(k, n - 1)`` and ``frac`` 0: the same read of the counts of the
    drawn positions sums the leading ``k``.
    """

    sorted_values: np.ndarray
    rank: np.ndarray | None
    k: np.ndarray
    at: np.ndarray
    frac: np.ndarray


def _side(
    family: DominanceFamily,
    dist: EmpiricalDistribution,
    spec: GridSpec,
    draw_order: np.ndarray | None,
) -> _Side:
    """Engine view of ``dist``; ``draw_order`` holds its values in pair order
    when matched pairs are drawn by index, else None."""
    rank = None
    if draw_order is not None:
        rank = np.empty(dist.n, dtype=np.int64)
        rank[np.argsort(draw_order, kind="stable")] = np.arange(dist.n)
    nodes = spec.nodes()
    if family.kind is Family.SD:
        k = np.searchsorted(dist.sorted_values, nodes, side="right")
        return _Side(dist.sorted_values, rank, k, np.minimum(k, dist.n - 1), np.zeros(k.size))
    return _Side(dist.sorted_values, rank, *quantile_positions(dist.n, nodes))


@dataclass(frozen=True, eq=False)
class _Prepared:
    """State that all bootstrap replicates share, read-only: their scratch is an argument."""

    family: DominanceFamily
    spec: GridSpec
    d1: EmpiricalDistribution
    d2: EmpiricalDistribution
    pairs: PairedSample | None
    side1: _Side
    side2: _Side
    diff: GridFunction
    sums: tuple[float, float, float]
    root_n: float
    seed: int


def _prepare(
    d1: EmpiricalDistribution,
    d2: EmpiricalDistribution,
    pairs: PairedSample | None,
    family: DominanceFamily,
    spec: GridSpec,
    cfg: InferenceConfig,
) -> tuple[CoefficientEstimate, _Prepared]:
    """Point estimate of the data (see :func:`_unpack`) and the state its
    replicates share."""
    est = coefficient(family, d1, d2, spec)
    prep = _Prepared(
        family=family,
        spec=spec,
        d1=d1,
        d2=d2,
        pairs=pairs,
        side1=_side(family, d1, spec, None if pairs is None else pairs.x1),
        side2=_side(family, d2, spec, None if pairs is None else pairs.x2),
        diff=est.difference,
        sums=_area_sums(est.difference),
        root_n=float(np.sqrt(est.effective_n)),
        seed=cfg.seed,
    )
    return est, prep


def _draw_sizes(prep: _Prepared) -> tuple[tuple[int, int], ...]:
    """``(high, size)`` of each ``integers(0, high, size)`` draw that makes
    one resample: pair indices when matched, else indices into each
    sample's order statistics (first, then second)."""
    n1, n2 = prep.d1.n, prep.d2.n
    return ((n1, n1),) if prep.pairs is not None else ((n1, n1), (n2, n2))


def _draw_indices(
    prep: _Prepared, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of one resample into the first and second sample (matched
    pairs share one draw)."""
    idx = [rng.integers(0, high, size) for high, size in _draw_sizes(prep)]
    return idx[0], idx[-1]


def _resample(prep: _Prepared, rng: np.random.Generator):
    """One resample of the prepared data (pairs jointly when matched, else
    each sample on its own) as ``(d1, d2, pairs)`` (see
    :func:`_distributions`), and its grid."""
    idx1, idx2 = _draw_indices(prep, rng)
    if prep.pairs is not None:
        data = PairedSample(prep.pairs.x1[idx1], prep.pairs.x2[idx2])
    else:
        data = prep.d1.sorted_values[idx1], prep.d2.sorted_values[idx2]
    return _distributions(data), prep.spec


def _ordered_map(fn, items, n_jobs: int):
    """Yield ``fn(item)`` for each item, in item order.

    With ``n_jobs > 1`` the items run in contiguous chunks in a process
    pool of at most one worker per item and per core; ``fn`` should be a
    module-level function (or a ``functools.partial`` of one) so it
    pickles once per chunk.
    """
    workers = min(n_jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor
    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)


# segments per summed value below which _cut sums a row in segments
_SEGMENT_SHARE = 0.2


class _Cut(NamedTuple):
    """Where the prefix sums of a sample's rows are read at some nodes: the
    rows' leading ``stop`` values are summed in segments that start at
    ``starts``, or one by one where it is None (see :func:`_prefix_table`),
    and node ``i`` reads column ``col[i]`` of the table and ``at[i]`` and
    ``frac[i]`` of :class:`_Side`."""

    starts: np.ndarray | None
    stop: int
    col: np.ndarray
    at: np.ndarray
    frac: np.ndarray


def _cut(side: _Side, nodes: np.ndarray) -> _Cut:
    """The :class:`_Cut` of ``side`` at ``nodes`` (indices into the grid).

    Segment sums cost less than a running sum while the segments are below
    a fifth of the values summed: on one core of a 2-core VM, 77 against
    134 us for 16 x 2000 values in 151 segments, 143 against 126 in 400.
    """
    k = side.k[nodes]
    # k ascends with the nodes: keep what differs from the value before (np.unique loads numpy.ma)
    pos = k[k > 0]
    ends = pos[np.diff(pos, prepend=0) != 0]
    stop = int(ends[-1]) if ends.size else 0
    starts, col = None, k
    if ends.size < _SEGMENT_SHARE * stop:
        starts = np.concatenate(([0], ends))[: ends.size].astype(np.intp)
        col = np.searchsorted(ends, k) + (k > 0)
    return _Cut(starts, stop, col, side.at[nodes], side.frac[nodes])


class _Nodes(NamedTuple):
    """The grid nodes ``index`` at which a chunk reads the fluctuation
    curves, and the difference curve there (``diff``). ``cuts`` reads each
    sample's base curves at those nodes at operator degree 1; above it, as
    integration mixes nodes, at every node, and the integrals at ``index``.
    """

    index: np.ndarray
    diff: np.ndarray
    cuts: tuple[_Cut, _Cut]


def _nodes(prep: _Prepared, index: np.ndarray) -> _Nodes:
    """The :class:`_Nodes` of ``prep`` at the grid nodes ``index``."""
    read = index if prep.family.operator_degree == 1 else np.arange(prep.spec.n_points)
    cuts = _cut(prep.side1, read), _cut(prep.side2, read)
    return _Nodes(index, prep.diff.values[index], cuts)


@dataclass(frozen=True, eq=False)
class _Weights:
    """What the derivative draws under several contact-set estimates read
    from a resample, worked out once per bootstrap.

    Away from the zero nodes the derivative is linear in the fluctuation,
    so its sum over a node set S is a weighted sum over the resample. Let
    ``g`` be the adjoint of the family's integration passes applied to the
    indicator of S. Row ``r`` of ``samples[s]`` holds, for S the plus
    (``r = 2i``) or minus (``r = 2i + 1``) nodes of estimate ``i``,

    - SD: ``w[p] = sum_j g_j [p < k_j]``, so that ``sum_S g * cdf`` of a
      resample is the mean of ``w`` at its drawn positions;
    - otherwise: ``w[p] = sum_j g_j ([p < k_j] + frac_j [p = at_j])``, so
      that ``sum_S g * cq`` is the mean of the sorted resample times ``w``.

    ``base[s, 0, r]`` is that sum of sample ``s`` itself (its positions
    for SD, its sorted values otherwise), taken by the same code as a
    resample's, so that a resample equal to the sample gives exactly 0
    where the difference curve's own sums would leave its rounding.
    ``zero`` reads the union of the estimates' zero nodes, and ``parts[i]``
    holds the positions in ``zero.index`` of estimate ``i``'s zero nodes.
    """

    samples: tuple[np.ndarray, np.ndarray]
    base: np.ndarray
    zero: _Nodes
    parts: tuple[np.ndarray, ...]


def _sample_weights(side: _Side, g: np.ndarray) -> np.ndarray:
    """The rows of :class:`_Weights` of one sample, for the rows of node
    weights ``g``."""
    n = side.sorted_values.size
    # the k are ascending, so the nodes with k_j > p are those from the
    # first one past p on: w[p] is a suffix sum of g
    suffix = np.zeros((len(g), g.shape[1] + 1))
    suffix[:, :-1] = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
    w = np.take(suffix, np.searchsorted(side.k, np.arange(n), side="right"), axis=1)
    for row, weights in zip(w, g):
        row += np.bincount(side.at, weights * side.frac, minlength=n)
    return w


def _weights(prep: _Prepared, sets: tuple[ContactSets, ...], scratch: Scratch) -> _Weights:
    """The :class:`_Weights` of ``sets`` for the replicates of ``prep``."""
    family = prep.family
    masks = np.array([mask for s in sets for mask in (s.plus, s.minus)], dtype=float)
    # the adjoint of the family's passes: the same passes over the nodes in
    # reverse order
    g = family.integrate(masks[:, ::-1], prep.spec.step, axis=1)[:, ::-1]
    w1 = _sample_weights(prep.side1, g)
    # integrated quantiles are read at positions set by the sample size alone
    shared = family.kind is not Family.SD and prep.d1.n == prep.d2.n
    w2 = w1 if shared else _sample_weights(prep.side2, g)
    sides = prep.side1, prep.side2
    if family.kind is Family.SD:
        originals = tuple(np.arange(side.sorted_values.size)[None] for side in sides)
    else:
        originals = tuple(side.sorted_values[None] for side in sides)
    # copied out of the scratch, where each chunk takes its own sums
    base = _set_sums(prep, (w1, w2), originals, _means(prep, originals), scratch).copy()
    zero = np.flatnonzero(np.any([s.zero for s in sets], axis=0))
    return _Weights(
        samples=(w1, w2),
        base=base,
        zero=_nodes(prep, zero),
        parts=tuple(np.searchsorted(zero, s._indices[2]) for s in sets),
    )


def _positions(
    prep: _Prepared, states: np.ndarray, scratch: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Order positions of the replicates whose streams are at ``states``
    (see :func:`~almostdom.rng.stream_states`), one row each per sample:
    the indices :func:`_draw_indices` draws from those streams, or for
    matched pairs the positions their pair indices map to (``("pos", s)``
    of sample ``s``), in ``scratch``."""
    idx = draw_integers(states, _draw_sizes(prep), scratch)
    # the indices are in range by construction; a mode other than "raise"
    # lets np.take write straight into ``out`` instead of a buffer
    return tuple(
        i if side.rank is None
        else np.take(side.rank, i, out=scratch.take(("pos", s), i.shape, np.int64), mode="clip")
        for s, (side, i) in enumerate(zip((prep.side1, prep.side2), (idx[0], idx[-1])))
    )


def _resamples(
    prep: _Prepared, states: np.ndarray, scratch: Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's resamples of the replicates whose streams are at
    ``states``, one row each, in ``scratch``: the drawn positions for the
    SD family, else the resampled values in ascending order."""
    positions = _positions(prep, states, scratch)
    if prep.family.kind is Family.SD:
        return positions
    return tuple(
        _order_statistics(side, pos, scratch, s)
        for s, (side, pos) in enumerate(zip((prep.side1, prep.side2), positions))
    )


def _order_statistics(side: _Side, pos: np.ndarray, scratch: Scratch, s: int) -> np.ndarray:
    """The values at the positions ``pos`` (sorted in place) of each
    resample of sample ``s``, in ascending order, in ``("ordered", s)`` of
    ``scratch``."""
    n = pos.shape[1]
    # numpy sorts 32-bit integers about twice as fast as 64-bit ones; each
    # sample's keys are spent before the other's are written
    keys = scratch.take("keys", pos.shape, np.int32 if n < 2**31 else np.int64)
    np.copyto(keys, pos, casting="same_kind")
    keys.sort(axis=1)
    # np.take would copy 32-bit indices to the platform's integer first
    np.copyto(pos, keys)
    out = scratch.take(("ordered", s), pos.shape)
    return np.take(side.sorted_values, pos, out=out, mode="clip")


def _means(prep: _Prepared, samples) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Each Lorenz resample's mean, NaN where it is not positive or not
    finite, so that whatever is divided by it is not finite either (None
    for the other families)."""
    if prep.family.kind is not Family.LORENZ:
        return None, None
    out = []
    for ordered in samples:
        mean = ordered.sum(axis=1) / ordered.shape[1]
        out.append(np.where((mean > 0.0) & (mean < np.inf), mean, np.nan))
    return tuple(out)


def _set_sums(prep: _Prepared, w_rows, samples, means, scratch: Scratch) -> np.ndarray:
    """Each sample's sums of the base curve of each row of ``samples``
    over the node sets whose per-observation weights are ``w_rows`` (see
    :class:`_Weights`), one column each, in ``"sums"`` of ``scratch``."""
    sums = scratch.take("sums", (2, len(samples[0]), len(w_rows[0])))
    for sample, w, out, mean in zip(samples, w_rows, sums, means):
        n = sample.shape[1]
        if prep.family.kind is Family.SD:
            # spent on each column before the next is gathered
            gathered = scratch.take("gathered", sample.shape)
            for column, row in zip(out.T, w):
                np.take(row, sample, out=gathered, mode="clip").sum(axis=1, out=column)
        else:
            # einsum sums each row in an order of its own, whatever the
            # number of rows, where a BLAS product does not
            np.einsum("ij,kj->ik", sample, w, out=out)
        out /= n
        if mean is not None:
            out /= mean[:, None]
    return sums


def _weighted_sums(
    prep: _Prepared, weights: _Weights, samples, means, scratch: Scratch
) -> np.ndarray:
    """Sums of each replicate's scaled fluctuation ``root_n * (resampled -
    diff)`` over the node sets of ``weights``, one column each."""
    sums = _set_sums(prep, weights.samples, samples, means, scratch)
    sums -= weights.base
    linear = prep.family.orient(*sums, out=sums[1])
    linear *= prep.root_n
    return linear


def _counts(positions: np.ndarray, scratch: Scratch) -> np.ndarray:
    """How often each row of ``positions`` (offset in place to index one flat
    count) draws each position, as floats in ``"counts"`` of ``scratch``."""
    rows, n = positions.shape
    positions += n * np.arange(rows)[:, None]
    counts = scratch.take("counts", (rows, n))
    np.copyto(counts, np.bincount(positions.ravel(), minlength=rows * n).reshape(rows, n))
    return counts


def _prefix_table(values: np.ndarray, cut: _Cut, scratch: Scratch) -> np.ndarray:
    """The sums of each row's leading ``k`` values that ``cut`` reads, in
    ``scratch``: a zero, then the running sum of the leading ``cut.stop``
    values or of their segments from ``cut.starts`` on."""
    width = cut.stop if cut.starts is None else cut.starts.size
    table = scratch.take("table", (len(values), width + 1))
    table[:, 0] = 0.0
    if cut.starts is None:
        np.cumsum(values[:, : cut.stop], axis=1, out=table[:, 1:])
    elif cut.starts.size:
        np.add.reduceat(values[:, : cut.stop], cut.starts, axis=1, out=table[:, 1:])
        np.cumsum(table[:, 1:], axis=1, out=table[:, 1:])
    return table


def _curve_rows(values: np.ndarray, cut: _Cut, scratch: Scratch, out: np.ndarray) -> np.ndarray:
    """The base curve of each row of ``values`` at the nodes of ``cut``, in
    ``out``: the integrated quantile of sorted values, or the CDF of counts
    of drawn positions; the scratch taken is spent once ``out`` is written."""
    table = _prefix_table(values, cut, scratch)
    spare = scratch.take("spare", out.shape)
    return cum_quantile_at(values, table, cut.col, cut.at, cut.frac, (out, spare))


def _fluctuations(
    prep: _Prepared, samples, means, scratch: Scratch, nodes: _Nodes
) -> np.ndarray:
    """Scaled fluctuation curves ``root_n * (resampled - diff)`` of each
    resample in ``samples`` (see :func:`_resamples`) at ``nodes``, one row
    each, in ``scratch``."""
    rows = len(samples[0])
    width = nodes.cuts[0].col.size
    curves = [scratch.take(("curve", s), (rows, width)) for s in (0, 1)]
    for sample, mean, cut, out in zip(samples, means, nodes.cuts, curves):
        values = _counts(sample, scratch) if prep.family.kind is Family.SD else sample
        curve = _curve_rows(values, cut, scratch, out)
        if mean is not None:
            curve /= mean[:, None]
    h = prep.family.orient(*curves, out=curves[1])
    if prep.family.operator_degree > 1:
        prep.family.integrate(h, prep.spec.step, axis=1, out=h)
        # the first curve is spent once h is built, so h is read back there
        read = scratch.take(("curve", 0), (rows, nodes.index.size))
        h = np.take(h, nodes.index, axis=1, out=read, mode="clip")
    h -= nodes.diff
    h *= prep.root_n
    return h


def _chunk_draws(
    prep: _Prepared, weights: _Weights, states: np.ndarray, size: int, scratch: Scratch, lo: int
) -> list[np.ndarray]:
    """Derivative draws of the chunk of replicates from ``lo`` on (at most
    ``size`` of them) under each contact-set estimate of ``weights``, built
    in ``scratch``; a draw that is not finite is dropped. ``states`` holds
    the stream states of every replicate.

    Each draw is ``(d_pos * neg - pos * d_neg) / total**2`` at the curve's
    node sums ``pos``, ``neg`` and ``total``: ``d_pos`` is the fluctuation's
    sum over the plus nodes and ``d_neg`` minus its sum over the minus
    nodes, and at each zero node the one adds ``max(h, 0)`` and the other
    ``max(-h, 0)``.
    """
    samples = _resamples(prep, states[lo : lo + size], scratch)
    rows = len(samples[0])
    draws = []
    with np.errstate(all="ignore"):
        means = _means(prep, samples)
        linear = _weighted_sums(prep, weights, samples, means, scratch)
        if weights.zero.index.size:
            h = _fluctuations(prep, samples, means, scratch, weights.zero)
        for i, part in enumerate(weights.parts):
            d_pos, d_neg = linear[:, 2 * i], -linear[:, 2 * i + 1]
            if part.size:
                zero_part = scratch.take("zero_part", (rows, part.size))
                zero_part = np.take(h, part, axis=1, out=zero_part, mode="clip")
                one_sided = scratch.take("one_sided", zero_part.shape)
                d_pos = d_pos + np.maximum(zero_part, 0.0, out=one_sided).sum(axis=1)
                np.negative(zero_part, out=zero_part)
                d_neg += np.maximum(zero_part, 0.0, out=one_sided).sum(axis=1)
            draw = _quotient(d_pos, d_neg, prep.sums)
            draws.append(draw[np.isfinite(draw)])
    return draws


def _bootstrap_draws(
    prep: _Prepared, sets: tuple[ContactSets, ...], n_boot: int, n_jobs: int, scratch: Scratch
) -> list[np.ndarray]:
    """Derivative draws of replicates ``0`` to ``n_boot - 1`` under each
    contact-set estimate in ``sets``, in replicate order.

    Replicates run in chunks of ``_CHUNK_BUDGET // max(n1, n2, G)`` rows,
    and at least 2; each chunk is folded into draws as soon as it is built.
    Every chunk reads its resamples through the weights of ``sets``,
    worked out once, and builds them in ``scratch``.
    """
    size = max(2, _CHUNK_BUDGET // max(prep.d1.n, prep.d2.n, prep.spec.n_points))
    # the streams are derived once for all chunks: the derivation's fixed
    # cost would exceed the draws of a chunk of a few rows
    states = stream_states(prep.seed, 0, n_boot)
    chunk_fn = partial(_chunk_draws, prep, _weights(prep, sets, scratch), states, size, scratch)
    chunks = list(_ordered_map(chunk_fn, range(0, n_boot, size), n_jobs))
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _intervals(
    est: CoefficientEstimate,
    prep: _Prepared,
    cfg: InferenceConfig,
    thresholds: tuple[float, ...],
    n_jobs: int,
    scratch: Scratch,
) -> tuple[GridFunction, list[tuple[np.ndarray, float, float, tuple[float, float]]]]:
    """The studentization curve, and ``(sets, draws, q_lo, q_hi, ci)``
    under the contact sets ``sets`` of each threshold in ``thresholds``,
    all read off the same ``cfg.n_boot`` replicates, built in ``scratch``."""
    std = _std_curve(prep.family, prep.d1, prep.d2, prep.pairs, prep.spec)
    sets = tuple(
        contact_sets(est.difference, std, est.effective_n, replace(cfg, t_n=t_n))
        for t_n in thresholds
    )
    results = []
    for s, draws in zip(sets, _bootstrap_draws(prep, sets, cfg.n_boot, n_jobs, scratch)):
        if draws.size == 0:
            raise NonFiniteDrawError("every bootstrap replicate was degenerate")
        ordered = np.sort(draws)
        q_lo, q_hi = (_inf_quantile(ordered, beta) for beta in (cfg.alpha / 2, 1 - cfg.alpha / 2))
        lo, hi = est.c_hat - q_hi / prep.root_n, est.c_hat - q_lo / prep.root_n
        if cfg.clamp_to_unit:
            lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
        results.append((s, draws, q_lo, q_hi, (lo, hi)))
    return std, results


def bootstrap_ci(
    data,
    family: DominanceFamily,
    scheme: SamplingScheme,
    spec: GridSpec,
    cfg: InferenceConfig,
    n_jobs: int = 1,
) -> BootstrapResult:
    """Coefficient estimate with a bootstrap confidence interval.

    ``data`` is a ``(Sample, Sample)`` pair under the independent scheme
    or a :class:`PairedSample` under matched pairs (pairs are resampled
    jointly). Identical inputs and seed give bit-identical results for
    any ``n_jobs``.

    The interval is two-sided at level ``1 - alpha``. For a one-sided
    level-``1 - alpha`` bound, run with ``2 * alpha`` and keep the
    relevant endpoint: the upper bound is
    ``c_hat - q(alpha) / sqrt(effective_n)``, the lower bound is
    ``c_hat - q(1 - alpha) / sqrt(effective_n)``.
    """
    est, prep = _prepare(*_unpack(data, scheme), family, spec, cfg)
    std, ((sets, draws, q_lo, q_hi, ci),) = _intervals(
        est, prep, cfg, (cfg.t_n,), n_jobs, Scratch()
    )
    return BootstrapResult(
        estimate=est,
        std=std,
        draws=draws,
        q_lo=q_lo,
        q_hi=q_hi,
        ci=ci,
        n_boot_effective=int(draws.size),
        seed=cfg.seed,
        boundary=est.c_hat in (0.0, 1.0),
        plus_nodes=int(sets.plus.sum()),
        minus_nodes=int(sets.minus.sum()),
        zero_nodes=int(sets.zero.sum()),
    )


@dataclass(frozen=True)
class TuningTable:
    """Coverage of the calibration truth for each candidate threshold.

    ``selected`` is the candidate whose coverage lies closest to the
    nominal level; ties break toward the smallest candidate. The coverages
    leave out the ``n_failed`` replicates that could not be evaluated.
    """

    candidates: tuple[float, ...]
    coverage: tuple[float, ...]
    pseudo_true: float
    selected: float
    n_failed: int


def _study_replicate(
    source,
    family: DominanceFamily,
    cfg: InferenceConfig,
    thresholds: tuple[float, ...],
    truth: float,
    scratch: Scratch,
    rep: int,
) -> tuple[float, np.ndarray | None]:
    """Estimate of study replicate ``rep``, and whether each threshold's
    interval covers ``truth``.

    ``source(rng)`` gives the replicate's unpacked data ``(d1, d2, pairs)``
    (see :func:`_unpack`) and its grid from the stream keyed (seed, rep, 0);
    the bootstrap runs from the seed derived at (seed, rep, 1), in the
    study's ``scratch``. A replicate whose data admit no estimate or no
    interval (curves that coincide, a Lorenz sample without a positive
    mean, sums that overflow, no usable bootstrap draw) fails and gives
    ``(nan, None)``.
    """
    rep_cfg = replace(cfg, seed=child_seed(cfg.seed, rep, 1))
    try:
        dists, spec = source(child_rng(cfg.seed, rep, 0))
        est, prep = _prepare(*dists, family, spec, rep_cfg)
        _, results = _intervals(est, prep, rep_cfg, thresholds, 1, scratch)
    except (DegenerateCurvesError, ZeroMeanError, NumericOverflowError, NonFiniteDrawError):
        return float("nan"), None
    return est.c_hat, np.array([lo <= truth <= hi for *_, (lo, hi) in results])


def _coverage_study(source, family, cfg, thresholds, truth, n_reps, n_jobs):
    """:func:`_study_replicate` of replicates ``0`` to ``n_reps - 1``, in
    replicate order, whose bootstraps share one scratch (one per task
    batch of a pool worker)."""
    rep_fn = partial(_study_replicate, source, family, cfg, thresholds, truth, Scratch())
    return list(_ordered_map(rep_fn, range(n_reps), n_jobs))


def tuning_table(
    data,
    family: DominanceFamily,
    scheme: SamplingScheme,
    spec: GridSpec,
    cfg: InferenceConfig,
    candidates,
    n_cal_reps: int,
    n_cal_boot: int,
    n_jobs: int = 1,
) -> TuningTable:
    """Calibrate candidate thresholds against the observed data.

    The observed samples act as the data-generating process: the
    coefficient they imply is the calibration truth, each calibration
    replicate resamples datasets of the original sizes from them, and
    every candidate threshold is scored by how often its interval covers
    that truth. Candidates share the simulated datasets and bootstrap
    resamples (neither depends on the threshold), so their coverages
    differ only through the contact sets; a repeated candidate is scored
    once. Degenerate replicates are counted in ``n_failed``;
    :class:`NonFiniteDrawError` is raised if all are.
    """
    candidates = tuple(sorted({float(t) for t in candidates}))
    if not candidates:
        raise InvalidConfigError("need at least one candidate threshold")
    n_cal_reps = _count("n_cal_reps", n_cal_reps)
    n_cal_boot = _count("n_cal_boot", n_cal_boot)
    for t_n in candidates:  # a bad candidate is a bad request, whatever the data
        replace(cfg, t_n=t_n)
    estimate, base = _prepare(*_unpack(data, scheme), family, spec, cfg)
    results = _coverage_study(
        partial(_resample, base), family, replace(cfg, n_boot=n_cal_boot),
        candidates, estimate.c_hat, n_cal_reps, n_jobs,
    )
    covered = [row for _, row in results if row is not None]
    if not covered:
        raise NonFiniteDrawError("every calibration replicate was degenerate")
    coverage = np.mean(covered, axis=0)
    errors = np.abs(coverage - (1.0 - cfg.alpha))
    return TuningTable(
        candidates=candidates,
        coverage=tuple(float(c) for c in coverage),
        pseudo_true=estimate.c_hat,
        selected=candidates[int(np.argmin(errors))],
        n_failed=n_cal_reps - len(covered),
    )


def select_tuning(
    data,
    family: DominanceFamily,
    scheme: SamplingScheme,
    spec: GridSpec,
    cfg: InferenceConfig,
    candidates,
    n_cal_reps: int,
    n_cal_boot: int,
    n_jobs: int = 1,
) -> float:
    """Pick the candidate threshold whose calibrated coverage is closest to
    the nominal level; ties break toward the smallest candidate."""
    return tuning_table(
        data, family, scheme, spec, cfg, candidates, n_cal_reps, n_cal_boot, n_jobs
    ).selected
