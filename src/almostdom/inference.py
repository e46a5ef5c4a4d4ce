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
grow with the number of replicates. A chunk holds ``2**13 // max(n, G)``
rows, so that each of its arrays stays within 64 KB, but at least 2 rows.
The n-long rows (the streams' words, the drawn indices, the positions,
the order statistics and their prefix sums) are written into one
workspace per bootstrap (:class:`_Workspace`), allocated once and reused
by every chunk, so the chunks of a large sample reuse the same pages
(a stream with a rejected word is still redrawn into a fresh array).
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
from functools import partial

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
# this many values: 64 KB of float64, below glibc's default 128 KB mmap
# threshold, so the temporaries reuse heap memory instead of faulting in
# fresh pages, and a chunk's working set stays in a 2 MB L2 cache. A chunk
# holds at least 2 rows; where two n-long rows exceed the budget they live
# in the bootstrap's workspace (_Workspace), allocated once, and only
# G-long rows, from 2**13 nodes on, still fault in fresh pages per chunk.
_CHUNK_BUDGET = 1 << 13


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


def _derivative_rows(
    h_rows: np.ndarray, sets: ContactSets, sums: tuple[float, float, float]
) -> np.ndarray:
    """Directional derivative of the area ratio for each row of ``h_rows``,
    at the curve whose :func:`_area_sums` are ``sums``."""
    pos, neg, total = sums
    zero_part = h_rows[:, sets.zero]
    d_pos = h_rows[:, sets.plus].sum(axis=1) + np.maximum(zero_part, 0.0).sum(axis=1)
    d_neg = -h_rows[:, sets.minus].sum(axis=1) + np.maximum(-zero_part, 0.0).sum(axis=1)
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


class _Workspace:
    """Row buffers for chunks of at most ``rows`` replicates of ``prep``,
    which every chunk writes into: the drawn indices (see
    :class:`~almostdom.rng.DrawBuffers`), the positions that matched pairs'
    draws map to, and, per sample size, the gathered order statistics and
    their prefix sums (column 0 zero).

    A workspace pickles without its buffers, so each batch of chunks that a
    pool worker runs allocates its own; they go with the last reference to
    the workspace, at the end of the bootstrap that made it.
    """

    def __init__(self, prep: _Prepared, rows: int):
        self.prep, self.rows = prep, rows
        sides = (prep.side1, prep.side2)
        self.sizes = _draw_sizes(prep)
        self.indices = DrawBuffers(rows, self.sizes)
        self.pos = [
            None if side.rank is None else np.empty((rows, side.rank.size), np.int64)
            for side in sides
        ]
        blocks = {}
        if prep.family.kind is not Family.SD:
            for n in {side.sorted_values.size for side in sides}:
                prefix = np.empty((rows, n + 1))
                prefix[:, 0] = 0.0
                blocks[n] = np.empty((rows, n)), prefix
        self.blocks = [blocks.get(side.sorted_values.size) for side in sides]

    def __reduce__(self):
        return _Workspace, (self.prep, self.rows)


def _positions(
    prep: _Prepared, states: np.ndarray, space: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Order positions of the replicates whose streams are at ``states``
    (see :func:`~almostdom.rng.stream_states`), one row each per sample:
    the indices :func:`_draw_indices` draws from those streams. They are
    written into ``space``, a fresh one when None."""
    if space is None:
        space = _Workspace(prep, len(states))
    rows = len(states)
    idx = draw_integers(states, space.sizes, space.indices)
    # the indices are in range by construction; a mode other than "raise"
    # lets np.take write straight into ``out`` instead of a buffer
    return tuple(
        i if side.rank is None else np.take(side.rank, i, out=pos[:rows], mode="clip")
        for side, i, pos in zip((prep.side1, prep.side2), (idx[0], idx[-1]), space.pos)
    )


def _cdf_rows(side: _Side, pos: np.ndarray) -> np.ndarray:
    """Empirical CDF at the nodes of each resample in ``pos``."""
    rows, n = pos.shape
    flat = (pos + n * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * n).reshape(rows, n)
    cdf = np.zeros((rows, n + 1))
    np.cumsum(counts, axis=1, out=cdf[:, 1:])
    cdf /= n
    return np.take(cdf, side.k, axis=1)


def _cum_quantile_rows(
    side: _Side, pos: np.ndarray, block: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrated quantile at the nodes of each resample in ``pos`` (sorted
    in place), and each resample's mean. The order statistics and their
    prefix sums are written into the leading rows of ``block`` (see
    :class:`_Workspace`)."""
    pos.sort(axis=1)
    rows, n = pos.shape
    ordered, prefix = block[0][:rows], block[1][:rows]
    np.take(side.sorted_values, pos, out=ordered, mode="clip")
    np.cumsum(ordered, axis=1, out=prefix[:, 1:])
    return cum_quantile_at(ordered, prefix, side.k, side.at, side.frac), prefix[:, -1] / n


def _replicate_rows(
    prep: _Prepared, states: np.ndarray, space: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled fluctuation curves ``root_n * (resampled - diff)`` of the
    replicates whose streams are at ``states``, one row each, and a mask of
    the usable rows. The resamples are built in ``space`` (see
    :func:`_positions`).

    Replicate b draws from the stream keyed (seed, b), whose state is row b
    of ``stream_states(prep.seed, 0, n_boot)``.
    A row is usable when it is finite: a row whose sums overflow is not, and
    a Lorenz row whose resample mean is not positive (or overflowed) is NaN.
    """
    if space is None:
        space = _Workspace(prep, len(states))
    pos1, pos2 = _positions(prep, states, space)
    kind = prep.family.kind
    with np.errstate(all="ignore"):
        if kind is Family.SD:
            rows = _cdf_rows(prep.side1, pos1) - _cdf_rows(prep.side2, pos2)
        else:
            cq1, mean1 = _cum_quantile_rows(prep.side1, pos1, space.blocks[0])
            cq2, mean2 = _cum_quantile_rows(prep.side2, pos2, space.blocks[1])
            if kind is Family.LORENZ:
                for cq, mean in ((cq1, mean1), (cq2, mean2)):
                    cq /= np.where((mean > 0.0) & (mean < np.inf), mean, np.nan)[:, None]
            rows = np.subtract(cq2, cq1, out=cq2)
        rows = prep.family.integrate(rows, prep.spec.step, axis=1)
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
    with np.errstate(over="ignore", invalid="ignore"):
        draws = [_derivative_rows(rows, s, prep.sums) for s in sets]
    return [d[ok & np.isfinite(d)] for d in draws]


def _bootstrap_draws(
    prep: _Prepared, sets: tuple[ContactSets, ...], n_boot: int, n_jobs: int
) -> list[np.ndarray]:
    """Derivative draws of replicates ``0`` to ``n_boot - 1`` under each
    contact-set estimate in ``sets``, in replicate order.

    Replicates run in chunks of ``_CHUNK_BUDGET // max(n1, n2, G)`` rows,
    and at least 2; each chunk is folded into draws as soon as it is built.
    Every chunk builds its resamples in one workspace, allocated once.
    """
    size = max(2, _CHUNK_BUDGET // max(prep.d1.n, prep.d2.n, prep.spec.n_points))
    starts = list(range(0, n_boot, size))
    # numpy sums the masked columns of a single row pairwise but those of
    # several rows one column at a time, so a lone last row joins the chunk
    # before it: every draw then sums the same way as in one n_boot-row block
    if len(starts) > 1 and n_boot - starts[-1] == 1:
        starts.pop()
    bounds = list(zip(starts, starts[1:] + [n_boot]))
    # the streams are derived once for all chunks: the derivation's fixed
    # cost would exceed the draws of a chunk of a few rows
    states = stream_states(prep.seed, 0, n_boot)
    space = _Workspace(prep, max(hi - lo for lo, hi in bounds))
    chunk_fn = partial(_chunk_draws, prep, sets, states, space)
    chunks = list(_ordered_map(chunk_fn, bounds, n_jobs))
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _intervals(
    est: CoefficientEstimate,
    prep: _Prepared,
    cfg: InferenceConfig,
    thresholds: tuple[float, ...],
    n_jobs: int,
) -> tuple[GridFunction, list[tuple[np.ndarray, float, float, tuple[float, float]]]]:
    """The studentization curve, and ``(draws, q_lo, q_hi, ci)`` under the
    contact sets of each threshold in ``thresholds``, all read off the same
    ``cfg.n_boot`` replicates."""
    std = std_curve_for(prep.family, prep.d1, prep.d2, prep.pairs, prep.scheme, prep.spec)
    sets = tuple(
        contact_sets(est.difference, std, est.effective_n, replace(cfg, t_n=t_n))
        for t_n in thresholds
    )
    results = []
    for draws in _bootstrap_draws(prep, sets, cfg.n_boot, n_jobs):
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
    rep: int,
) -> tuple[float, np.ndarray | None]:
    """Estimate of study replicate ``rep``, and whether each threshold's
    interval covers ``truth``.

    ``source(rng)`` gives the replicate's unpacked data ``(d1, d2, pairs)``
    (see :func:`_unpack`) and its grid from the stream keyed (seed, rep, 0);
    the bootstrap runs from the seed derived at (seed, rep, 1). A replicate
    whose data admit no estimate or no interval (curves that coincide, a
    Lorenz sample without a positive mean, sums that overflow, no usable
    bootstrap draw) fails and gives ``(nan, None)``.
    """
    rep_cfg = replace(cfg, seed=child_seed(cfg.seed, rep, 1))
    try:
        dists, spec = source(child_rng(cfg.seed, rep, 0))
        est, prep = _prepare(*dists, family, scheme, spec, rep_cfg)
        _, results = _intervals(est, prep, rep_cfg, thresholds, 1)
    except (
        DegenerateCurvesError, ZeroMeanError, NumericOverflowError, NonFiniteDrawError
    ):
        return float("nan"), None
    return est.c_hat, np.array([lo <= truth <= hi for *_, (lo, hi) in results])


def _coverage_study(source, family, scheme, cfg, thresholds, truth, n_reps, n_jobs):
    """:func:`_study_replicate` of replicates ``0`` to ``n_reps - 1``, in
    replicate order."""
    rep_fn = partial(_study_replicate, source, family, scheme, cfg, thresholds, truth)
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
