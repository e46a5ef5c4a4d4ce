"""The chunked replicate engine against a per-replicate reference.

The reference rebuilds each replicate the direct way: draw the resample,
build both empirical distributions, and recompute the difference curve.
The engine must give the same rows, the same draws for any chunk size and
``n_jobs``, and drop the same replicates the reference cannot evaluate.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from almostdom import calculus, empirical, inference
from almostdom.calculus import GridFunction, GridSpec, area_ratio
from almostdom.cli import PRESETS
from almostdom.coefficients import (
    Direction,
    DominanceFamily,
    default_grid,
    difference_curve,
)
from almostdom.covariance import std_curve_for
from almostdom.empirical import EmpiricalDistribution, PairedSample, Sample, SamplingScheme
from almostdom.errors import (
    DegenerateCurvesError,
    DomainError,
    ZeroMeanError,
)
from almostdom.inference import InferenceConfig, bootstrap_ci, tuning_table
from almostdom.rng import Scratch, child_rng, stream_states
from almostdom.simulation import DoublePareto, MonteCarloStudy, run_replicates

from reference import replicate_rows

MP = SamplingScheme.MATCHED
IND = SamplingScheme.INDEPENDENT

FAMILIES = [
    DominanceFamily.lorenz(1),
    DominanceFamily.lorenz(2),
    DominanceFamily.lorenz(2, Direction.DOWN),
    DominanceFamily.lorenz(3),
    DominanceFamily.lorenz(3, Direction.DOWN),
    DominanceFamily.inverse_sd(2),
    DominanceFamily.inverse_sd(3),
    DominanceFamily.inverse_sd(3, Direction.DOWN),
    DominanceFamily.sd(1),
    DominanceFamily.sd(2),
    DominanceFamily.sd(3),
]


def reference_rows(prep, n_boot):
    """Per-replicate rows the direct way, NaN where a replicate fails."""
    rows = np.full((n_boot, prep.spec.n_points), np.nan)
    for b in range(n_boot):
        (d1, d2, _), spec = inference._resample(prep, child_rng(prep.seed, b))
        try:
            star = difference_curve(prep.family, d1, d2, spec)
        except (ZeroMeanError, DomainError):
            continue
        rows[b] = prep.root_n * (star.values - prep.diff.values)
    return rows


def make_data(scheme, x1, x2):
    if scheme is MP:
        n = min(len(x1), len(x2))
        return PairedSample(x1[:n], x2[:n])
    return Sample(x1), Sample(x2)


def grid_for(family, data, scheme, points):
    d1, d2, _ = inference._unpack(data, scheme)
    return default_grid(family, d1, d2, points)


def lorenz_data(scheme, n=60, seed=3):
    rng = child_rng(seed, 0)
    x1 = DoublePareto(3.0, 1.5).sample(n, rng)
    x2 = DoublePareto(2.1, 3.0).sample(n + 7, rng)
    return make_data(scheme, x1, x2)


def chunk_rows(monkeypatch, data, scheme, spec, rows):
    """Make the engine run ``rows`` replicates per chunk."""
    d1, d2, _ = inference._unpack(data, scheme)
    monkeypatch.setattr(inference, "_CHUNK_BUDGET", rows * max(d1.n, d2.n, spec.n_points))


# values on a coarse lattice (many ties) or spread out
values = st.one_of(
    st.integers(0, 12).map(lambda v: v / 4.0),
    st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(FAMILIES),
    scheme=st.sampled_from([MP, IND]),
    x1=st.lists(values, min_size=2, max_size=40),
    x2=st.lists(values, min_size=2, max_size=40),
    points=st.integers(2, 30),
    seed=st.integers(0, 2**32),
)
# a resample equal to the sample on the plus and minus nodes, where the
# curve's own node sums would leave about 1e-16 where the reference has 0
@example(
    family=DominanceFamily.inverse_sd(2), scheme=IND,
    x1=[2.0, 0.99999], x2=[1.0, 1.0], points=3, seed=3016,
)
# a replicate whose exact fluctuation is about 2e-17 (it redraws 94.0 for
# 93.99999999999999), which the reference rounds to 0 and the engine to
# about 2 ulp: every reference draw at t_n = 0.5 is then 0
@example(
    family=DominanceFamily.lorenz(1), scheme=IND, x1=[0.25, 0.015625],
    x2=[0.0, 1.25, 1.25, 1.5, 1.5, 94.0, 94.0, 28.788097537364877, 93.99999999999999],
    points=2, seed=2209,
)
def test_rows_match_reference(family, scheme, x1, x2, points, seed):
    data = make_data(scheme, x1, x2)
    cfg = InferenceConfig(t_n=0.5, seed=seed, n_boot=6)
    try:
        spec = grid_for(family, data, scheme, points)
        est, prep = inference._prepare(*inference._unpack(data, scheme), family, spec, cfg)
        std = std_curve_for(family, prep.d1, prep.d2, prep.pairs, scheme, spec)
    except (DegenerateCurvesError, ZeroMeanError, ValueError):
        assume(False)
    want = reference_rows(prep, cfg.n_boot)
    rows, ok = replicate_rows(prep, stream_states(cfg.seed, 0, cfg.n_boot))
    np.testing.assert_array_equal(ok, ~np.isnan(want).any(axis=1))
    scale = max(float(np.abs(want[ok]).max(initial=0.0)), 1e-300)
    np.testing.assert_allclose(rows[ok], want[ok], rtol=0.0, atol=1e-12 * scale)

    # three contact-set estimates in one bootstrap: zero nodes only where
    # the curve vanishes, some, and every node
    estimates = tuple(
        inference.contact_sets(est.difference, std, est.effective_n, replace(cfg, t_n=t_n))
        for t_n in (1e-12, 0.5, 1e12)
    )
    all_draws = inference._bootstrap_draws(prep, estimates, cfg.n_boot, 1, Scratch())
    # a draw is at most twice its row's sum of magnitudes over the total of
    # the curve's node sums, and its rounding follows that bound, not the
    # draw: a draw can round to 0 in the reference and not in the engine
    bound = np.abs(want[ok]).sum(axis=1).max(initial=0.0) / prep.sums[2]
    for sets, draws in zip(estimates, all_draws):
        want_draws = inference._derivative_rows(want[ok], sets, prep.sums)
        scale = max(float(np.abs(want_draws).max(initial=0.0)), float(bound), 1e-300)
        np.testing.assert_allclose(draws, want_draws, rtol=0.0, atol=1e-12 * scale)


@st.composite
def exact_contact_data(draw):
    """``(family, pairs, domain)`` whose difference curve is exactly zero on
    whole stretches: draws from the ``sdc`` laws at SD 1 and 2 on a domain
    wider than their support, whose CDFs coincide below the lowest atom
    and above the highest; or integer pairs sharing their lowest values,
    with equal sums, at ISD 3 and Lorenz 2."""
    n = draw(st.integers(6, 30))
    rng = child_rng(draw(st.integers(0, 2**32)), 0)
    if draw(st.booleans()):
        law = PRESETS[draw(st.sampled_from(["sdc-a", "sdc-b", "sdc-c", "sdc-d"]))]
        family = draw(st.sampled_from([DominanceFamily.sd(1), DominanceFamily.sd(2)]))
        pairs = PairedSample(law["dgp1"].sample(n, rng), law["dgp2"].sample(n, rng))
        return family, pairs, (0.0, 1.25)
    family = draw(st.sampled_from([DominanceFamily.inverse_sd(3), DominanceFamily.lorenz(2)]))
    shared = draw(st.integers(1, n - 2))
    low = rng.integers(1, 6, shared).astype(float)
    tail = rng.integers(16, 41, n - shared).astype(float)
    moves = rng.integers(-5, 6, n - shared).astype(float)
    # the moves sum to zero and keep the second tail above the shared values
    x1 = np.concatenate((low, tail))
    x2 = np.concatenate((low, tail + moves - np.roll(moves, 1)))
    return family, PairedSample(x1[rng.permutation(n)], x2[rng.permutation(n)]), (0.0, 1.0)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(case=exact_contact_data(), points=st.integers(5, 40), seed=st.integers(0, 2**32))
def test_draws_are_numerical_deltas(case, points, seed):
    # With t_n = 1e-12 the contact set is the exact zero set of the curve,
    # so each engine draw is the derivative of the area ratio along its own
    # row and matches the difference quotient of area_ratio along that row,
    # with the second-order miss and rounding bound of
    # test_inference.py::test_derivative_is_the_limit_of_difference_quotients.
    # The step eps keeps every nonzero node on its side of zero.
    family, pairs, domain = case
    cfg = InferenceConfig(t_n=1e-12, seed=seed, n_boot=8)
    spec = GridSpec(points, domain)
    try:
        est, prep = inference._prepare(*inference._unpack(pairs, MP), family, spec, cfg)
    except DegenerateCurvesError:
        assume(False)
    diff = est.difference.values
    std = std_curve_for(family, prep.d1, prep.d2, prep.pairs, MP, spec)
    sets = inference.contact_sets(est.difference, std, est.effective_n, cfg)
    assume(np.array_equal(sets.zero, diff == 0.0))
    rows, ok = replicate_rows(prep, stream_states(cfg.seed, 0, cfg.n_boot))
    (draws,) = inference._bootstrap_draws(prep, (sets,), cfg.n_boot, 1, Scratch())
    assert draws.size == ok.sum()
    total = np.abs(diff).sum()
    gap = np.abs(diff[diff != 0.0]).min()
    for h, value in zip(rows[ok], draws):
        spread = np.abs(h).sum()
        eps = min(1e-6, 0.5 * gap / max(np.abs(h).max(), 1e-300))
        moved = diff + eps * h
        quotient = (area_ratio(GridFunction(spec, moved)) - est.c_hat) / eps
        bound = 2 * eps * spread**2 / (total * np.abs(moved).sum())
        rounding = 8 * points * np.finfo(float).eps * (1 / eps + spread / total)
        assert abs(quotient - value) <= bound + rounding, (eps, quotient, value)


@pytest.mark.parametrize(
    "family",
    [
        DominanceFamily.lorenz(2),
        DominanceFamily.sd(1),
        DominanceFamily.inverse_sd(3),
        DominanceFamily.inverse_sd(3, Direction.DOWN),
    ],
)
@pytest.mark.parametrize("scheme", [MP, IND])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunk_boundaries(monkeypatch, family, scheme, offset):
    # n_boot = k * chunk + offset for several chunk sizes; offset 1 leaves
    # one replicate past the last full chunk
    data = lorenz_data(scheme)
    spec = grid_for(family, data, scheme, 50)
    budget = inference._CHUNK_BUDGET
    for size in range(2, 8):
        cfg = InferenceConfig(t_n=0.5, seed=size, n_boot=3 * size + offset)
        monkeypatch.setattr(inference, "_CHUNK_BUDGET", budget)
        whole = bootstrap_ci(data, family, scheme, spec, cfg)
        chunk_rows(monkeypatch, data, scheme, spec, size)
        chunked = bootstrap_ci(data, family, scheme, spec, cfg)
        np.testing.assert_array_equal(chunked.draws, whole.draws)
        assert chunked.ci == whole.ci and chunked.n_boot_effective == cfg.n_boot


@pytest.mark.parametrize("family", [DominanceFamily.lorenz(1), DominanceFamily.inverse_sd(3)])
@pytest.mark.parametrize("scheme", [MP, IND])
def test_tuning_draws_do_not_depend_on_the_chunk_size(monkeypatch, family, scheme):
    # the draws of every calibration replicate under five candidates, whose
    # zero shares run from none to all, in one chunk and in chunks of 2
    # rows; a BLAS product in place of the weighted sums changes 5 to 10 of
    # the Lorenz draws here
    data = lorenz_data(scheme)
    spec = GridSpec(40)
    cfg = InferenceConfig(t_n=0.5, seed=6, n_boot=17)
    args = (data, family, scheme, spec, cfg, [1e-12, 0.1, 1.0, 10.0, 1e12], 4, 17)
    seen = []
    bootstrap_draws = inference._bootstrap_draws

    def record(*args, **kwargs):
        seen.append(bootstrap_draws(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(inference, "_bootstrap_draws", record)
    whole = tuning_table(*args)
    whole_draws = seen[:]
    seen.clear()
    chunk_rows(monkeypatch, data, scheme, spec, 2)
    assert tuning_table(*args) == whole
    assert len(seen) == len(whole_draws) == 4
    for chunked, one_block in zip(seen, whole_draws):
        for got, want in zip(chunked, one_block, strict=True):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("scheme", [MP, IND])
def test_parallel_matches_serial_across_chunks(monkeypatch, scheme):
    data = lorenz_data(scheme)
    family = DominanceFamily.inverse_sd(3)
    spec = GridSpec(40)
    chunk_rows(monkeypatch, data, scheme, spec, 4)
    cfg = InferenceConfig(t_n=0.5, seed=2, n_boot=23)
    serial = bootstrap_ci(data, family, scheme, spec, cfg, n_jobs=1)
    parallel = bootstrap_ci(data, family, scheme, spec, cfg, n_jobs=2)
    np.testing.assert_array_equal(serial.draws, parallel.draws)
    assert serial.ci == parallel.ci
    args = (data, family, scheme, spec, cfg, [0.1, 1.0, 10.0], 3, 11)
    assert tuning_table(*args, n_jobs=1) == tuning_table(*args, n_jobs=2)


@pytest.mark.parametrize(
    "n_jobs, n_items, workers",
    [(5000, 3, [3]), (5000, 10, [4]), (2, 10, [2]), (5000, 1, []), (-3, 10, [])],
)
def test_pool_is_bounded_by_items_and_cores(pool_requests, n_jobs, n_items, workers):
    out = list(inference._ordered_map(abs, range(-n_items, 0), n_jobs))
    assert out == list(range(n_items, 0, -1))
    assert pool_requests == workers


@pytest.mark.parametrize("scheme", [MP, IND])
def test_prefix_stability_across_chunks(monkeypatch, scheme):
    data = lorenz_data(scheme)
    family = DominanceFamily.sd(2)
    spec = grid_for(family, data, scheme, 40)
    chunk_rows(monkeypatch, data, scheme, spec, 7)
    short = bootstrap_ci(data, family, scheme, spec, InferenceConfig(t_n=1, seed=4, n_boot=30))
    long = bootstrap_ci(data, family, scheme, spec, InferenceConfig(t_n=1, seed=4, n_boot=60))
    np.testing.assert_array_equal(short.draws, long.draws[:30])


@pytest.mark.parametrize(
    "scheme, n1, n2", [(MP, 2, 2), (MP, 2000, 2000), (IND, 3, 200), (IND, 1, 4), (IND, 200, 1)]
)
def test_positions_are_the_generator_draws(scheme, n1, n2):
    rng = child_rng(44, 0)
    data = make_data(scheme, rng.random(n1) + 1.0, 2.0 * rng.random(n2) + 1.0)
    family, spec = DominanceFamily.sd(1), GridSpec(10, (0.0, 3.0))
    cfg = InferenceConfig(t_n=1.0, seed=2**64 - 5)
    _, prep = inference._prepare(*inference._unpack(data, scheme), family, spec, cfg)
    pos1, pos2 = inference._positions(prep, stream_states(cfg.seed, 0, 20), Scratch())
    for b in range(20):
        idx1, idx2 = inference._draw_indices(prep, child_rng(cfg.seed, b))
        for pos, idx, side in ((pos1, idx1, prep.side1), (pos2, idx2, prep.side2)):
            np.testing.assert_array_equal(pos[b], idx if side.rank is None else side.rank[idx])


def cut_by_unique(side, nodes):
    """``inference._cut`` as it read when np.unique found the segment ends."""
    k = side.k[nodes]
    ends = np.unique(k[k > 0])
    stop = int(ends[-1]) if ends.size else 0
    starts, col = None, k
    if ends.size < inference._SEGMENT_SHARE * stop:
        starts = np.concatenate(([0], ends))[: ends.size].astype(np.intp)
        col = np.searchsorted(ends, k) + (k > 0)
    return inference._Cut(starts, stop, col, side.at[nodes], side.frac[nodes])


@settings(max_examples=300, deadline=None)
@given(
    k=st.lists(st.integers(0, 6), max_size=30).map(sorted),
    picks=st.lists(st.booleans(), min_size=30, max_size=30),
    sd=st.booleans(),
    share=st.sampled_from([0.0, inference._SEGMENT_SHARE, np.inf]),
)
def test_cut_matches_np_unique(k, picks, sd, share):
    # ascending positions with zeros and repeats, read at an ascending
    # subset of the nodes (possibly none), for the SD family and the others,
    # by running sums (share 0), segment sums (share inf) and the size rule
    k = np.array(k, dtype=np.int64)
    nodes = np.flatnonzero(picks[: k.size])
    at, frac = (np.minimum(k, 6), np.zeros(k.size)) if sd else (np.maximum(k - 1, 0), k / 7.0)
    side = inference._Side(np.arange(7.0), None, k, at, frac)
    with mock.patch.object(inference, "_SEGMENT_SHARE", share):
        got, want = inference._cut(side, nodes), cut_by_unique(side, nodes)
    for g, w in zip(got, want):
        if w is None or isinstance(w, int):
            assert g == w
        else:
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 30),
    rows=st.integers(1, 4),
    k=st.lists(st.integers(0, 30), max_size=12).map(sorted),
    share=st.sampled_from([0.0, inference._SEGMENT_SHARE, np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_reader_matches_cumsum(n, rows, k, share, seed):
    # nodes with k = 0, repeated k and k = n, or none, read by running sums
    # (share 0), segment sums (share inf) and the size rule
    rng = np.random.default_rng(seed)
    k = np.minimum(np.array(k, dtype=np.int64), n)
    values = rng.random((rows, n)) + 0.5
    at, frac = rng.integers(0, n, k.size), rng.random(k.size)
    side = inference._Side(np.sort(values[0]), None, k, at, frac)
    with mock.patch.object(inference, "_SEGMENT_SHARE", share):
        cut = inference._cut(side, np.arange(k.size))
    if share == 0.0:
        assert cut.starts is None
    elif share == np.inf and k.any():
        assert cut.starts is not None
    got = inference._curve_rows(values, cut, Scratch(), np.empty((rows, k.size)))
    prefix = np.concatenate((np.zeros((rows, 1)), np.cumsum(values, axis=1)), axis=1)
    want = (values[:, at] * frac + prefix[:, k]) / n
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(
    x=st.lists(st.integers(0, 8), min_size=1, max_size=30),
    rows=st.integers(1, 4),
    picks=st.lists(st.booleans(), min_size=12, max_size=12),
    share=st.sampled_from([0.0, inference._SEGMENT_SHARE, np.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sd_reads_are_counts_of_positions(x, rows, picks, share, seed):
    # nodes below, among and above tied values (k = 0, repeated k, k = n),
    # or none: the reader's CDF is the resample's searchsorted count over n
    dist = EmpiricalDistribution(np.array(x, dtype=float))
    spec = GridSpec(12, (-1.0, 10.0))
    side = inference._side(DominanceFamily.sd(1), dist, spec, None)
    nodes = np.flatnonzero(picks)
    with mock.patch.object(inference, "_SEGMENT_SHARE", share):
        cut = inference._cut(side, nodes)
    pos = np.random.default_rng(seed).integers(0, dist.n, (rows, dist.n))
    scratch = Scratch()
    counts = inference._counts(pos.copy(), scratch)
    got = inference._curve_rows(counts, cut, scratch, np.empty((rows, nodes.size)))
    for row, p in zip(got, pos):
        resample = np.sort(dist.sorted_values[p])
        want = np.searchsorted(resample, spec.nodes()[nodes], side="right") / dist.n
        np.testing.assert_array_equal(row, want)


@pytest.mark.parametrize("degree", [1, 2])
def test_memory_is_bounded_by_the_chunk_budget(degree):
    # at G = 1e4 a chunk holds 3 rows (2**15 // 1e4); all 300 in one block
    # would be 24 MB per array, twice the cap
    n, n_points = 200, 10_000
    rng = child_rng(43, 0)
    x1 = rng.pareto(3.0, n) + 1.0
    pairs = PairedSample(x1, 0.5 * x1 + rng.pareto(3.0, n) + 1.0)
    cfg = InferenceConfig(t_n=1.0, seed=0, n_boot=300)
    # std_curve_for alone peaks at 7.1 MB (degree 1) and 8.7 MB (degree 2)
    # here; chunks of 2**19 values peaked at 13.4 and 13.7 MB
    cap = 12e6
    tracemalloc.start()
    try:
        bootstrap_ci(pairs, DominanceFamily.lorenz(degree), MP, GridSpec(n_points), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap, f"peak {peak / 1e6:.1f} MB"


def test_a_huge_bootstrap_allocates_nothing_per_chunk_up_front(monkeypatch):
    # 10**6 replicates at G = 10**4 run in about 333,000 chunks of 3 rows;
    # nothing is built per chunk before the stream states are derived, and
    # their allocation is made to fail here
    rng = child_rng(47, 0)
    x1 = rng.pareto(3.0, 200) + 1.0
    pairs = PairedSample(x1, 0.5 * x1 + rng.pareto(3.0, 200) + 1.0)
    family, spec = DominanceFamily.lorenz(1), GridSpec(10_000)
    cfg = InferenceConfig(t_n=1.0, seed=0, n_boot=10**6)
    est, prep = inference._prepare(*inference._unpack(pairs, MP), family, spec, cfg)
    std = std_curve_for(family, prep.d1, prep.d2, prep.pairs, MP, spec)
    sets = (inference.contact_sets(est.difference, std, est.effective_n, cfg),)

    def refuse(seed, lo, hi):
        raise MemoryError(f"{hi - lo} stream states")

    monkeypatch.setattr(inference, "stream_states", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="1000000 stream states"):
            inference._bootstrap_draws(prep, sets, cfg.n_boot, 1, Scratch())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "family", [DominanceFamily.lorenz(2), DominanceFamily.inverse_sd(3), DominanceFamily.sd(1)]
)
@pytest.mark.parametrize("scheme", [MP, IND])
def test_workspace_is_reused_across_chunks_above_4096(monkeypatch, family, scheme):
    # samples of more than 4096 values in chunks of 2 rows, set through the
    # budget; the odd n_boot leaves a lone last row, which the last chunk
    # writes into the workspace's leading row
    rng = child_rng(46, 0)
    x1 = DoublePareto(3.0, 1.5).sample(5000, rng)
    x2 = DoublePareto(2.1, 3.0).sample(5000 if scheme is MP else 4700, rng)
    data = make_data(scheme, x1, x2)
    spec = grid_for(family, data, scheme, 50)
    cfg = InferenceConfig(t_n=0.5, seed=12, n_boot=9)
    est, prep = inference._prepare(*inference._unpack(data, scheme), family, spec, cfg)
    std = std_curve_for(family, prep.d1, prep.d2, prep.pairs, scheme, spec)
    sets = (inference.contact_sets(est.difference, std, est.effective_n, cfg),)
    chunk_rows(monkeypatch, data, scheme, spec, 2)
    seen = []
    positions = inference._positions

    def record(prep, states, space):
        pos = positions(prep, states, space)
        seen.append((space, [p.copy() for p in pos], tuple(p.ctypes.data for p in pos)))
        return pos

    monkeypatch.setattr(inference, "_positions", record)
    (draws,) = inference._bootstrap_draws(prep, sets, cfg.n_boot, 1, Scratch())
    monkeypatch.undo()
    assert [len(pos[0]) for _, pos, _ in seen] == [2, 2, 2, 2, 1]
    # one workspace, whose buffers every chunk writes into
    assert len({id(space) for space, _, _ in seen}) == 1
    assert len({address for *_, address in seen}) == 1
    # which pickles without its buffers
    assert len(pickle.dumps(seen[0][0])) < len(pickle.dumps(prep)) + 1000
    for b in range(cfg.n_boot):
        chunk, row = b // 2, b % 2
        pos1, pos2 = seen[chunk][1]
        idx1, idx2 = inference._draw_indices(prep, child_rng(cfg.seed, b))
        for pos, idx, side in ((pos1, idx1, prep.side1), (pos2, idx2, prep.side2)):
            np.testing.assert_array_equal(pos[row], idx if side.rank is None else side.rank[idx])
    # the derivative of the whole curves of every replicate, built in one
    # block in a fresh workspace
    rows, ok = replicate_rows(prep, stream_states(cfg.seed, 0, cfg.n_boot))
    want = inference._derivative_rows(rows, sets[0], prep.sums)
    want = want[ok & np.isfinite(want)]
    scale = float(np.abs(want).max())
    np.testing.assert_allclose(draws, want, rtol=0.0, atol=1e-12 * scale)
    # a pool's task batches each fill a workspace of their own
    serial = bootstrap_ci(data, family, scheme, spec, cfg, n_jobs=1)
    parallel = bootstrap_ci(data, family, scheme, spec, cfg, n_jobs=2)
    np.testing.assert_array_equal(serial.draws, draws)
    np.testing.assert_array_equal(parallel.draws, draws)


def test_workspace_does_not_outlive_the_call():
    # the workspace of this bootstrap holds about 0.8 MB (3 rows of n = 5000);
    # once bootstrap_ci returns, only its result is left
    rng = child_rng(47, 0)
    x1 = rng.pareto(3.0, 5000) + 1.0
    pairs = PairedSample(x1, 0.5 * x1 + rng.pareto(3.0, 5000) + 1.0)
    args = (pairs, DominanceFamily.lorenz(2), MP, GridSpec(100))
    cfg = InferenceConfig(t_n=1.0, seed=0, n_boot=9)
    bootstrap_ci(*args, cfg)  # a first call leaves what is built once per process
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = bootstrap_ci(*args, cfg)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before - result.draws.nbytes < 64 * 1024


FAULT_PROBE = textwrap.dedent("""
    import ctypes, resource, sys
    import numpy as np
    # glibc's default mmap threshold, held fixed: an allocation of 128 KB
    # or more gets fresh pages, which fault in on first touch
    ctypes.CDLL(None).mallopt(-3, 128 * 1024)
    from almostdom.calculus import GridSpec
    from almostdom.coefficients import DominanceFamily
    from almostdom.empirical import EmpiricalDistribution, PairedSample, Sample, SamplingScheme
    from almostdom.inference import InferenceConfig, bootstrap_ci
    case, n, n_boot = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    rng = np.random.default_rng(0)
    x1, x2 = rng.pareto(3.0, n) + 1.0, rng.pareto(2.5, n) + 1.0
    if case == "lorenz":
        args = ((Sample(x1), Sample(x2)), DominanceFamily.lorenz(1),
                SamplingScheme.INDEPENDENT, GridSpec(1000))
    elif case == "isd":
        args = (PairedSample(x1, x2), DominanceFamily.inverse_sd(3),
                SamplingScheme.MATCHED, GridSpec(1000))
    else:
        args = (PairedSample(x1, x2), DominanceFamily.sd(1), SamplingScheme.MATCHED,
                GridSpec(1000, (0.0, 2.0 * max(x1.max(), x2.max()))))
    cfg = InferenceConfig(t_n=1.0, seed=0, n_boot=n_boot)
    bootstrap_ci(*args, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    bootstrap_ci(*args, cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt")
@pytest.mark.parametrize(
    "case, n, n_boot", [("lorenz", 2000, 1600), ("isd", 1000, 3200), ("sd", 200, 3200)]
)
def test_chunks_fault_in_no_fresh_pages(case, n, n_boot):
    # 100 chunks of 16 or 32 rows on 1000 nodes: the shapes of the ci, tune
    # and simulate commands of the replicate benchmark. A chunk of 32 rows
    # that allocated its 256 KB G-long arrays would fault in 64 fresh pages
    # for each (about 27,000 faults in all here); what a bootstrap may fault
    # in is its workspace, once (300 to 600 pages here), the studentization
    # and what it returns (250 to 860 faults in all)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, case, str(n), str(n_boot)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 2000


def mask_reference(h_rows, sets, sums):
    """The derivative draws from boolean masks on the rows."""
    pos, neg, total = sums
    zero_part = h_rows[:, sets.zero]
    d_pos = h_rows[:, sets.plus].sum(axis=1) + np.maximum(zero_part, 0.0).sum(axis=1)
    d_neg = -h_rows[:, sets.minus].sum(axis=1) + np.maximum(-zero_part, 0.0).sum(axis=1)
    return (d_pos * (neg / total) - (pos / total) * d_neg) / total


def mask_cases(n_points, rng):
    """Contact sets: random ones, one with an empty part, all zero, all plus."""
    labels = rng.integers(0, 3, n_points)
    no_minus = np.where(labels == 1, 0, labels)
    for labels in (labels, no_minus, np.full(n_points, 2), np.zeros(n_points, int)):
        yield inference.ContactSets(plus=labels == 0, minus=labels == 1, zero=labels == 2)


@pytest.mark.parametrize("rows", [1, 2, 3, 16, 33])
@pytest.mark.parametrize("n_points", [1, 2, 7, 1000])
def test_derivative_gather_matches_masks(rows, n_points):
    rng = child_rng(48, rows, n_points)
    h = rng.normal(size=(rows, n_points)) * 10.0 ** rng.uniform(-8, 8, (rows, n_points))
    # a row with NaN and one with both infinities, where there are two
    if rows > 1:
        h[0, rng.integers(n_points)] = np.nan
        h[-1, : min(2, n_points)] = [np.inf, -np.inf][: min(2, n_points)]
    sums = (0.3, 0.1, 0.4)
    for sets in mask_cases(n_points, rng):
        with np.errstate(invalid="ignore"):
            want = mask_reference(h, sets, sums)
            got = inference._derivative_rows(h, sets, sums)
        np.testing.assert_array_equal(got, want)
        if rows == 1 and n_points > 1:
            # the public single-row derivative, which sums a masked row pairwise
            spec = GridSpec(n_points)
            diff = GridFunction(spec, np.where(np.arange(n_points) % 2, -0.1, 0.3))
            single = inference.derivative(GridFunction(spec, h[0]), sets, diff)
            assert single == mask_reference(h, sets, inference._area_sums(diff))[0]


@pytest.mark.parametrize("scheme", [MP, IND])
def test_study_replicates_share_a_workspace(monkeypatch, scheme):
    data = lorenz_data(scheme)
    family = DominanceFamily.inverse_sd(3)
    spec = GridSpec(40)
    cfg = InferenceConfig(t_n=0.5, seed=2, n_boot=23)
    args = (data, family, scheme, spec, cfg, [0.1, 1.0, 10.0], 5, 11)
    fresh = tuning_table(*args)
    made = []

    def scratch():
        made.append(Scratch())
        return made[-1]

    monkeypatch.setattr(inference, "Scratch", scratch)
    # every calibration replicate resamples datasets of the same sizes, and
    # all five bootstraps build in the one scratch of the study, with the
    # same coverages
    assert tuning_table(*args) == fresh
    (used,) = [s for s in made if s._buffers]
    # it then holds all that the study asks for: a rerun allocates nothing
    held = dict(used._buffers)
    monkeypatch.setattr(inference, "Scratch", lambda: used)
    assert tuning_table(*args) == fresh
    assert used._buffers.keys() == held.keys()
    assert all(used._buffers[name] is buffer for name, buffer in held.items())


def zero_heavy_pairs():
    # resampling {0, 0, 0, 1} often draws only zeros: a Lorenz curve of mean 0
    return PairedSample(np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0, 4.0]))


def test_failed_replicates_dropped_and_counted(monkeypatch):
    pairs = zero_heavy_pairs()
    family, spec = DominanceFamily.lorenz(1), GridSpec(20)
    cfg = InferenceConfig(t_n=0.5, seed=5, n_boot=40)
    _, prep = inference._prepare(*inference._unpack(pairs, MP), family, spec, cfg)
    failed = int(np.isnan(reference_rows(prep, cfg.n_boot)).any(axis=1).sum())
    assert 0 < failed < cfg.n_boot
    whole = bootstrap_ci(pairs, family, MP, spec, cfg)
    chunk_rows(monkeypatch, pairs, MP, spec, 3)
    chunked = bootstrap_ci(pairs, family, MP, spec, cfg)
    assert whole.n_boot_effective == chunked.n_boot_effective == cfg.n_boot - failed
    np.testing.assert_array_equal(whole.draws, chunked.draws)


def test_non_finite_replicate():
    # one huge value: resamples that draw it twice overflow the partial sums
    pairs = PairedSample(np.array([1e308, 1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    family, spec = DominanceFamily.inverse_sd(2), GridSpec(10)
    skipping = InferenceConfig(t_n=0.5, seed=0, n_boot=30)
    _, prep = inference._prepare(*inference._unpack(pairs, MP), family, spec, skipping)
    with np.errstate(over="ignore", invalid="ignore"):
        rows, ok = replicate_rows(prep, stream_states(skipping.seed, 0, 30))
    assert 0 < ok.sum() < 30 and np.all(np.isfinite(rows[ok]))


@pytest.mark.parametrize("family", [DominanceFamily.lorenz(2), DominanceFamily.sd(1)])
def test_replicates_build_no_curve_objects(monkeypatch, family):
    data = lorenz_data(MP)
    spec = grid_for(family, data, MP, 30)
    built = {"dist": 0, "grid": 0}
    dist_init = empirical.EmpiricalDistribution.__init__
    grid_post = calculus.GridFunction.__post_init__

    def count_dist(self, *args):
        built["dist"] += 1
        dist_init(self, *args)

    def count_grid(self):
        built["grid"] += 1
        grid_post(self)

    monkeypatch.setattr(empirical.EmpiricalDistribution, "__init__", count_dist)
    monkeypatch.setattr(calculus.GridFunction, "__post_init__", count_grid)
    counts = []
    for n_boot in (5, 50):
        built.update(dist=0, grid=0)
        bootstrap_ci(data, family, MP, spec, InferenceConfig(t_n=1, seed=0, n_boot=n_boot))
        counts.append(dict(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("scheme", [MP, IND])
def test_monte_carlo_builds_each_distribution_once(monkeypatch, scheme):
    built = [0]
    dist_init = empirical.EmpiricalDistribution.__init__

    def count_dist(self, *args):
        built[0] += 1
        dist_init(self, *args)

    monkeypatch.setattr(empirical.EmpiricalDistribution, "__init__", count_dist)
    study = MonteCarloStudy(
        DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0), DominanceFamily.lorenz(1), scheme,
        (20, 20), InferenceConfig(t_n=1, seed=0, n_boot=10), 3, 0.4, 30,
    )
    estimates, _ = run_replicates(study)
    assert not np.isnan(estimates).any()
    assert built[0] == 2 * study.n_reps
