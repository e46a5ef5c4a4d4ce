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
positions among the order statistics of each sample. For a chunk of
replicates the rows are sorted and their values summed cumulatively;
read at node positions that do not change between replicates, the sums
give the Lorenz and integrated-quantile curves, and cumulative counts of
the positions give the empirical CDFs. Each chunk is turned into
derivative draws at once, so memory is bounded by the chunk and does not
grow with the number of replicates. A chunk holds ``2**15 // max(n, G)``
rows, so that each of its arrays stays within 256 KB and its working set
within a 2 MB L2 cache, but at least 2 rows. Every array a chunk writes
(the streams' words, the drawn indices, the positions, the order
statistics and their prefix sums, the curves at the nodes, and the
derivative's transposed chunk and gathered contact-set parts) is written
into one workspace per bootstrap (:class:`_Workspace`), allocated once and
reused by every chunk, so the chunks reuse the same pages; the
bootstraps of one coverage study share one workspace. The exceptions are
a stream with a rejected word, which is redrawn into a fresh array, and
the SD family's count of positions, which ``np.bincount`` allocates.
A replicate whose Lorenz resample has no positive mean, or whose curve or
draw is not finite, gives no draw: it is dropped, and ``n_boot_effective``
counts the rest.

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
pool, with identical results either way.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .calculus import GridFunction, GridSpec, _node_sums
from .coefficients import CoefficientEstimate, DominanceFamily, Family, coefficient
from .covariance import std_curve_for
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
from .rng import DrawBuffers, child_rng, child_seed, draw_integers, stream_states

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
# bootstrap's workspace (_Workspace), allocated once, so their size does not
# matter to the allocator: above glibc's 128 KB mmap threshold, arrays
# allocated per chunk would fault in fresh pages for every chunk.
_CHUNK_BUDGET = 1 << 15


def _integer(name: str, value) -> int:
    """``value`` as an int: any integer type but ``bool``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    return number


def _count(name: str, value) -> int:
    """``value`` as an int of at least 1 (see :func:`_integer`)."""
    number = _integer(name, value)
    if number < 1:
        raise InvalidConfigError(f"{name} must be >= 1, got {number}")
    return number


@dataclass(frozen=True)
class InferenceConfig:
    """Settings for contact-set estimation and the bootstrap.

    ``t_n`` is the studentized threshold separating "clearly signed" nodes
    from the estimated contact set; it must grow with the sample (slower
    than sqrt(effective_n)) for the asymptotics, and is a finite-sample
    tuning choice here (see :func:`select_tuning`). ``xi0`` bounds the
    studentization away from zero. A bootstrap replicate that gives no
    draw (a Lorenz resample without a positive mean, or a curve that is
    not finite) is dropped, so ``n_boot_effective`` may fall below
    ``n_boot``.
    """

    t_n: float
    seed: int
    xi0: float = 0.001
    n_boot: int = 1000
    alpha: float = 0.05
    clamp_to_unit: bool = True

    def __post_init__(self):
        if not self.t_n > 0:
            raise InvalidConfigError(f"t_n must be positive, got {self.t_n}")
        if not self.xi0 > 0:
            raise InvalidConfigError(f"xi0 must be positive, got {self.xi0}")
        _count("n_boot", self.n_boot)
        if not 0.0 < self.alpha < 0.5:
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

    ``std`` is the studentization curve behind the contact sets.
    ``boundary`` flags estimates sitting exactly at 0 or 1, where the
    interval theory does not apply; the clamped interval is still
    returned.
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


def _leading(buffer: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leading values of the flat ``buffer`` as a contiguous ``shape``
    array."""
    return buffer[: shape[0] * shape[1]].reshape(shape)


def _gather(cols: np.ndarray, idx: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of ``cols``, written into the leading values of the flat
    ``buffer``."""
    out = _leading(buffer, (idx.size, cols.shape[1]))
    # the indices are in range, and a mode other than "raise" lets np.take
    # write straight into ``out`` instead of a buffer
    return np.take(cols, idx, axis=0, out=out, mode="clip")


def _derivative_cols(
    cols: np.ndarray,
    sets: ContactSets,
    sums: tuple[float, float, float],
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """:func:`_derivative_rows` of the rows of ``cols.T``, given as a
    contiguous (G x rows) array. ``scratch`` holds two flat arrays of at
    least ``cols.size`` values (fresh when None): each contact-set part is
    gathered into the first, and the one-sided parts of the contact set
    are written into the second.

    Each part is summed along axis 0, one node after another for every row
    at once. That is the order in which numpy sums the masked columns of a
    (rows x G) block when it has several rows, and for a single row it sums
    a contiguous run pairwise, as it does a masked row; so the draws are
    the same as from boolean masks on the rows.
    """
    gathered, one_sided = np.empty((2, cols.size)) if scratch is None else scratch
    pos, neg, total = sums
    plus, minus, zero = sets._indices
    d_pos = _gather(cols, plus, gathered).sum(axis=0)
    d_neg = -_gather(cols, minus, gathered).sum(axis=0)
    zero_part = _gather(cols, zero, gathered)
    one_sided = _leading(one_sided, zero_part.shape)
    d_pos += np.maximum(zero_part, 0.0, out=one_sided).sum(axis=0)
    d_neg += np.maximum(np.negative(zero_part, out=zero_part), 0.0, out=one_sided).sum(axis=0)
    # total**2 would turn subnormal once the sums fall below about 1.5e-154
    return (d_pos * (neg / total) - (pos / total) * d_neg) / total


def _derivative_rows(
    h_rows: np.ndarray, sets: ContactSets, sums: tuple[float, float, float]
) -> np.ndarray:
    """Directional derivative of the area ratio for each row of ``h_rows``,
    at the curve whose :func:`_area_sums` are ``sums``."""
    return _derivative_cols(np.ascontiguousarray(h_rows.T), sets, sums)


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


def _inf_quantile(values: np.ndarray, beta: float) -> float:
    """Smallest value whose empirical CDF reaches ``beta`` (the
    ceil(beta * B)-th order statistic)."""
    ordered = np.sort(values)
    k = int(np.ceil(beta * ordered.size))
    k = min(max(k, 1), ordered.size)
    return float(ordered[k - 1])


def _unpack(data, scheme: SamplingScheme):
    """Build the two empirical distributions (and pairs, when matched)."""
    if scheme is SamplingScheme.MATCHED:
        if not isinstance(data, PairedSample):
            raise SchemeMismatchError("matched scheme needs a PairedSample")
        return (
            EmpiricalDistribution(data.x1),
            EmpiricalDistribution(data.x2),
            data,
        )
    if isinstance(data, PairedSample):
        raise SchemeMismatchError("independent scheme takes two separate samples")
    try:
        first, second = data
    except (TypeError, ValueError) as exc:
        raise SchemeMismatchError(
            "independent scheme needs a (sample, sample) pair"
        ) from exc
    return build_empirical(first), build_empirical(second), None


@dataclass(frozen=True, eq=False)
class _Side:
    """One sample as the replicate engine reads its resamples.

    A resample is a row of positions among ``sorted_values``. Under the
    independent scheme the drawn indices already are positions; matched
    pairs draw pair indices, which ``rank`` maps to positions. ``k``,
    ``at`` and ``frac`` fix where the base curve is read at the grid nodes:
    the integrated quantile's positions (see
    :func:`~almostdom.empirical.quantile_positions`), or for the SD family
    ``k`` alone, the number of order statistics at or below each node
    (``at`` and ``frac`` None).
    """

    sorted_values: np.ndarray
    rank: np.ndarray | None
    k: np.ndarray
    at: np.ndarray | None
    frac: np.ndarray | None


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
        cut = np.searchsorted(dist.sorted_values, nodes, side="right")
        return _Side(dist.sorted_values, rank, cut, None, None)
    return _Side(dist.sorted_values, rank, *quantile_positions(dist.n, nodes))


@dataclass(frozen=True, eq=False)
class _Prepared:
    """Read-only state shared by all bootstrap replicates."""

    family: DominanceFamily
    scheme: SamplingScheme
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
    scheme: SamplingScheme,
    spec: GridSpec,
    cfg: InferenceConfig,
) -> tuple[CoefficientEstimate, _Prepared]:
    """Point estimate of the data (see :func:`_unpack`) and the state its
    replicates share."""
    est = coefficient(family, d1, d2, spec)
    prep = _Prepared(
        family=family,
        scheme=scheme,
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
    return ((n1, n1),) if prep.scheme is SamplingScheme.MATCHED else ((n1, n1), (n2, n2))


def _draw_indices(
    prep: _Prepared, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of one resample into the first and second sample (matched
    pairs share one draw)."""
    idx = [rng.integers(0, high, size) for high, size in _draw_sizes(prep)]
    return idx[0], idx[-1]


def _resample(prep: _Prepared, rng: np.random.Generator):
    """One resample of the prepared data (pairs jointly when matched, else
    each sample on its own), unpacked (see :func:`_unpack`), and its grid."""
    idx1, idx2 = _draw_indices(prep, rng)
    if prep.pairs is not None:
        data = PairedSample(prep.pairs.x1[idx1], prep.pairs.x2[idx2])
    else:
        data = prep.d1.sorted_values[idx1], prep.d2.sorted_values[idx2]
    return _unpack(data, prep.scheme), prep.spec


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
    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)


class _Shape(NamedTuple):
    """What the buffers of a :class:`_Workspace` are sized by: chunks of at
    most ``rows`` replicates, the draws ``sizes`` of one resample (see
    :func:`_draw_sizes`), each sample's size and whether its draws map to
    positions (matched pairs), whether the family reads CDFs (SD) rather
    than integrated quantiles, and the number of grid nodes."""

    rows: int
    sizes: tuple[tuple[int, int], ...]
    n: tuple[int, int]
    ranked: tuple[bool, bool]
    cdf: bool
    n_points: int


def _shape(prep: _Prepared, rows: int) -> _Shape:
    """The :class:`_Shape` of a workspace for chunks of ``prep``."""
    sides = (prep.side1, prep.side2)
    return _Shape(
        rows=rows,
        sizes=_draw_sizes(prep),
        n=tuple(side.sorted_values.size for side in sides),
        ranked=tuple(side.rank is not None for side in sides),
        cdf=prep.family.kind is Family.SD,
        n_points=prep.spec.n_points,
    )


class _Workspace:
    """Every array that a chunk of replicates writes, allocated once for
    chunks of one :class:`_Shape` and reused by each of them:

    - the n-long rows: the drawn indices (see
      :class:`~almostdom.rng.DrawBuffers`), the positions that matched
      pairs' draws map to, and, per sample size, the gathered order
      statistics, their prefix sums and the positions sorted as 32-bit
      integers, or for the SD family the cumulative counts of positions
      and the empirical CDFs (column 0 zero);
    - the G-long rows, three flat rows of ``rows * G`` values (``grid``):
      the two samples' curves and the second read of an integrated quantile
      (:func:`_replicate_rows`), then the chunk transposed and the gathered
      contact-set parts (:func:`_chunk_draws`).

    A workspace pickles without its buffers, so each batch of chunks that a
    pool worker runs allocates its own; they go with the last reference to
    the workspace, at the end of the bootstrap or study that made it.
    """

    def __init__(self, shape: _Shape):
        self.shape, rows = shape, shape.rows
        self.indices = DrawBuffers(rows, shape.sizes)
        self.pos = [
            np.empty((rows, n), np.int64) if ranked else None
            for n, ranked in zip(shape.n, shape.ranked)
        ]
        blocks = {}
        for n in set(shape.n):
            prefix = np.empty((rows, n + 1))
            prefix[:, 0] = 0.0
            if shape.cdf:
                blocks[n] = np.empty((rows, n), np.int64), prefix, None
            else:
                # numpy sorts 32-bit integers about twice as fast as 64-bit ones
                dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
                blocks[n] = np.empty((rows, n)), prefix, np.empty((rows, n), dtype)
        self.blocks = [blocks[n] for n in shape.n]
        self.grid = np.empty((3, rows * shape.n_points))

    def __reduce__(self):
        return _Workspace, (self.shape,)


class _WorkspaceSlot:
    """Holds the workspace of the last bootstrap run through it, for the
    next bootstrap of the same shape: the study replicates of one
    coverage study share theirs. A slot pickles empty."""

    def __init__(self):
        self.space = None

    def __reduce__(self):
        return _WorkspaceSlot, ()

    def fit(self, shape: _Shape) -> _Workspace:
        """The held workspace if it has ``shape``, else a new one, held."""
        if self.space is None or self.space.shape != shape:
            self.space = _Workspace(shape)
        return self.space


def _positions(
    prep: _Prepared, states: np.ndarray, space: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Order positions of the replicates whose streams are at ``states``
    (see :func:`~almostdom.rng.stream_states`), one row each per sample:
    the indices :func:`_draw_indices` draws from those streams. They are
    written into ``space``, a fresh one when None."""
    rows = len(states)
    if space is None:
        space = _Workspace(_shape(prep, rows))
    idx = draw_integers(states, space.shape.sizes, space.indices)
    # the indices are in range by construction; a mode other than "raise"
    # lets np.take write straight into ``out`` instead of a buffer
    return tuple(
        i if side.rank is None else np.take(side.rank, i, out=pos[:rows], mode="clip")
        for side, i, pos in zip((prep.side1, prep.side2), (idx[0], idx[-1]), space.pos)
    )


def _cdf_rows(
    side: _Side, pos: np.ndarray, block: tuple[np.ndarray, np.ndarray, None], out: np.ndarray
) -> np.ndarray:
    """Empirical CDF at the nodes of each resample in ``pos`` (whose rows
    are offset in place to index one flat count), written into ``out``. The
    cumulative counts and the CDFs at every order position go into the
    leading rows of ``block``'s first two arrays (see :class:`_Workspace`)."""
    rows, n = pos.shape
    pos += n * np.arange(rows)[:, None]
    counts = np.bincount(pos.ravel(), minlength=rows * n).reshape(rows, n)
    below, cdf = block[0][:rows], block[1][:rows]
    # summed as integers: a cumsum that casts to float takes fresh buffers
    np.divide(np.cumsum(counts, axis=1, out=below), n, out=cdf[:, 1:])
    return np.take(cdf, side.k, axis=1, out=out, mode="clip")


def _cum_quantile_rows(
    side: _Side,
    pos: np.ndarray,
    block: tuple[np.ndarray, np.ndarray, np.ndarray],
    out: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Integrated quantile at the nodes of each resample in ``pos`` (sorted
    in place), and each resample's mean. The order statistics, their prefix
    sums and the sort's 32-bit keys are written into the leading rows of
    ``block`` (see :class:`_Workspace`), the curves into ``out[0]``
    (``out[1]`` is scratch)."""
    rows, n = pos.shape
    ordered, prefix, keys = (array[:rows] for array in block)
    np.copyto(keys, pos, casting="same_kind")
    keys.sort(axis=1)
    # np.take would copy 32-bit indices to the platform's integer first
    np.copyto(pos, keys)
    np.take(side.sorted_values, pos, out=ordered, mode="clip")
    np.cumsum(ordered, axis=1, out=prefix[:, 1:])
    curves = cum_quantile_at(ordered, prefix, side.k, side.at, side.frac, out)
    return curves, prefix[:, -1] / n


def _replicate_rows(
    prep: _Prepared, states: np.ndarray, space: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled fluctuation curves ``root_n * (resampled - diff)`` of the
    replicates whose streams are at ``states``, one row each, and a mask of
    the usable rows. The resamples are built in ``space`` (see
    :func:`_positions`), and the curves are a view of its ``grid[1]``.

    Replicate b draws from the stream keyed (seed, b), whose state is row b
    of ``stream_states(prep.seed, 0, n_boot)``.
    A row is usable when it is finite: a row whose sums overflow is not, and
    a Lorenz row whose resample mean is not positive (or overflowed) is NaN.
    """
    if space is None:
        space = _Workspace(_shape(prep, len(states)))
    pos1, pos2 = _positions(prep, states, space)
    kind = prep.family.kind
    shape = (len(states), prep.spec.n_points)
    curve1, curve2, scratch = (_leading(row, shape) for row in space.grid)
    with np.errstate(all="ignore"):
        if kind is Family.SD:
            cdf1 = _cdf_rows(prep.side1, pos1, space.blocks[0], curve1)
            rows = _cdf_rows(prep.side2, pos2, space.blocks[1], curve2)
            rows = np.subtract(cdf1, rows, out=rows)
        else:
            cq1, mean1 = _cum_quantile_rows(prep.side1, pos1, space.blocks[0], (curve1, scratch))
            cq2, mean2 = _cum_quantile_rows(prep.side2, pos2, space.blocks[1], (curve2, scratch))
            if kind is Family.LORENZ:
                for cq, mean in ((cq1, mean1), (cq2, mean2)):
                    cq /= np.where((mean > 0.0) & (mean < np.inf), mean, np.nan)[:, None]
            rows = np.subtract(cq2, cq1, out=cq2)
        prep.family.integrate(rows, prep.spec.step, axis=1, out=rows)
        rows -= prep.diff.values
        rows *= prep.root_n
    return rows, np.isfinite(rows).all(axis=1)


def _chunk_draws(
    prep: _Prepared,
    sets: tuple[ContactSets, ...],
    states: np.ndarray,
    space: _Workspace,
    bounds: tuple[int, int],
) -> list[np.ndarray]:
    """Derivative draws of the usable replicates in ``bounds`` under each
    contact-set estimate in ``sets``, built in ``space``; a draw that
    overflows is dropped too. ``states`` holds the stream states of every
    replicate."""
    lo, hi = bounds
    rows, ok = _replicate_rows(prep, states[lo:hi], space)
    # one transposed copy serves every contact-set estimate; the first
    # sample's curve is spent by now, and the rows are once they are copied
    cols = _leading(space.grid[0], rows.shape[::-1])
    np.copyto(cols, rows.T)
    with np.errstate(over="ignore", invalid="ignore"):
        scratch = space.grid[2], space.grid[1]
        draws = [_derivative_cols(cols, s, prep.sums, scratch) for s in sets]
    return [d[ok & np.isfinite(d)] for d in draws]


def _bootstrap_draws(
    prep: _Prepared,
    sets: tuple[ContactSets, ...],
    n_boot: int,
    n_jobs: int,
    slot: _WorkspaceSlot | None = None,
) -> list[np.ndarray]:
    """Derivative draws of replicates ``0`` to ``n_boot - 1`` under each
    contact-set estimate in ``sets``, in replicate order.

    Replicates run in chunks of ``_CHUNK_BUDGET // max(n1, n2, G)`` rows,
    and at least 2; each chunk is folded into draws as soon as it is built.
    Every chunk builds its resamples in one workspace, allocated once, or
    taken from ``slot`` when given.
    """
    size = max(2, _CHUNK_BUDGET // max(prep.d1.n, prep.d2.n, prep.spec.n_points))
    starts = list(range(0, n_boot, size))
    # numpy sums a single row's contact-set parts pairwise but those of
    # several rows one node at a time (see _derivative_cols), so a lone last
    # row joins the chunk before it: every draw then sums the same way as in
    # one n_boot-row block
    if len(starts) > 1 and n_boot - starts[-1] == 1:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n_boot]))
    # the streams are derived once for all chunks: the derivation's fixed
    # cost would exceed the draws of a chunk of a few rows
    states = stream_states(prep.seed, 0, n_boot)
    shape = _shape(prep, max(hi - lo for lo, hi in bounds))
    space = _Workspace(shape) if slot is None else slot.fit(shape)
    chunk_fn = partial(_chunk_draws, prep, sets, states, space)
    chunks = list(_ordered_map(chunk_fn, bounds, n_jobs))
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _intervals(
    est: CoefficientEstimate,
    prep: _Prepared,
    cfg: InferenceConfig,
    thresholds: tuple[float, ...],
    n_jobs: int,
    slot: _WorkspaceSlot | None = None,
) -> tuple[GridFunction, list[tuple[np.ndarray, float, float, tuple[float, float]]]]:
    """The studentization curve, and ``(draws, q_lo, q_hi, ci)`` under the
    contact sets of each threshold in ``thresholds``, all read off the same
    ``cfg.n_boot`` replicates (built in a workspace from ``slot`` when
    given)."""
    std = std_curve_for(prep.family, prep.d1, prep.d2, prep.pairs, prep.scheme, prep.spec)
    sets = tuple(
        contact_sets(est.difference, std, est.effective_n, replace(cfg, t_n=t_n))
        for t_n in thresholds
    )
    results = []
    for draws in _bootstrap_draws(prep, sets, cfg.n_boot, n_jobs, slot):
        if draws.size == 0:
            raise NonFiniteDrawError("every bootstrap replicate was degenerate")
        q_lo = _inf_quantile(draws, cfg.alpha / 2.0)
        q_hi = _inf_quantile(draws, 1.0 - cfg.alpha / 2.0)
        lo, hi = est.c_hat - q_hi / prep.root_n, est.c_hat - q_lo / prep.root_n
        if cfg.clamp_to_unit:
            lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
        results.append((draws, q_lo, q_hi, (lo, hi)))
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
    est, prep = _prepare(*_unpack(data, scheme), family, scheme, spec, cfg)
    std, ((draws, q_lo, q_hi, ci),) = _intervals(est, prep, cfg, (cfg.t_n,), n_jobs)
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
    scheme: SamplingScheme,
    cfg: InferenceConfig,
    thresholds: tuple[float, ...],
    truth: float,
    slot: _WorkspaceSlot,
    rep: int,
) -> tuple[float, np.ndarray | None]:
    """Estimate of study replicate ``rep``, and whether each threshold's
    interval covers ``truth``.

    ``source(rng)`` gives the replicate's unpacked data ``(d1, d2, pairs)``
    (see :func:`_unpack`) and its grid from the stream keyed (seed, rep, 0);
    the bootstrap runs from the seed derived at (seed, rep, 1), in the
    workspace that ``slot`` holds for the study's replicates. A replicate
    whose data admit no estimate or no interval (curves that coincide, a
    Lorenz sample without a positive mean, sums that overflow, no usable
    bootstrap draw) fails and gives ``(nan, None)``.
    """
    rep_cfg = replace(cfg, seed=child_seed(cfg.seed, rep, 1))
    try:
        dists, spec = source(child_rng(cfg.seed, rep, 0))
        est, prep = _prepare(*dists, family, scheme, spec, rep_cfg)
        _, results = _intervals(est, prep, rep_cfg, thresholds, 1, slot)
    except (
        DegenerateCurvesError, ZeroMeanError, NumericOverflowError, NonFiniteDrawError
    ):
        return float("nan"), None
    return est.c_hat, np.array([lo <= truth <= hi for *_, (lo, hi) in results])


def _coverage_study(source, family, scheme, cfg, thresholds, truth, n_reps, n_jobs):
    """:func:`_study_replicate` of replicates ``0`` to ``n_reps - 1``, in
    replicate order, which share one workspace slot (one per task batch of
    a pool worker)."""
    rep_fn = partial(
        _study_replicate, source, family, scheme, cfg, thresholds, truth, _WorkspaceSlot()
    )
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
    estimate, base = _prepare(*_unpack(data, scheme), family, scheme, spec, cfg)
    results = _coverage_study(
        partial(_resample, base), family, scheme, replace(cfg, n_boot=n_cal_boot),
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
