"""Batch-derived stream states and raw-word draws against numpy's own."""

import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from almostdom import rng
from almostdom.rng import Scratch, draw_integers, stream_states

# seeds of one, two and five uint32 words, at the word edges
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**128 + 5]
# keys b of one, two and three uint32 words, with the word values 0 and
# 2**32 - 1, including ranges that cross from one width to the next
KEY_RANGES = [(0, 3), (2**32 - 2, 2**32 + 2), (2**64 - 2, 2**64 + 2)]


def numpy_state(seed, b):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))).state["state"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lo, hi", KEY_RANGES)
def test_states_match_numpy(seed, lo, hi):
    got = stream_states(seed, lo, hi)
    assert got.shape == (hi - lo, 4) and got.dtype == np.uint64
    for (s0, s1, i0, i1), b in zip(got.tolist(), range(lo, hi)):
        assert {"state": s0 << 64 | s1, "inc": i0 << 64 | i1} == numpy_state(seed, b)


def test_states_of_numpy_integer_seeds():
    for seed in (np.int64(7), np.uint64(2**64 - 1)):
        np.testing.assert_array_equal(stream_states(seed, 5, 9), stream_states(int(seed), 5, 9))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_states_across_a_block_edge(seed):
    edge = rng._BLOCK
    whole = stream_states(seed, 0, edge + 3)
    for lo in (edge - 3, edge):
        np.testing.assert_array_equal(stream_states(seed, lo, edge + 3), whole[lo:])
    for (s0, s1, i0, i1), b in zip(whole[edge - 3 :].tolist(), range(edge - 3, edge + 3)):
        assert {"state": s0 << 64 | s1, "inc": i0 << 64 | i1} == numpy_state(seed, b)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_state_memory_is_bounded():
    # 2e5 states take 6.1 MiB; deriving them all in one pass raised the
    # peak by 129 MiB with a tuple of Python ints per key, and by 37 MiB
    # with arrays as long as the range
    probe = (
        "import resource\n"
        "from almostdom.rng import stream_states\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "states = stream_states(0, 0, 2 * 10**5)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, states.nbytes)\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    rise_kib, result = map(int, done.stdout.split())
    assert rise_kib * 1024 < result + 16 * 2**20


def test_states_of_a_range_are_its_rows():
    whole = stream_states(3, 0, 40)
    np.testing.assert_array_equal(stream_states(3, 17, 23), whole[17:23])
    assert stream_states(3, 8, 8).shape == (0, 4)


@pytest.mark.parametrize(
    "sizes",
    [
        # one draw, as matched pairs draw
        ((1, 1),),
        ((2, 2),),
        ((3, 3),),
        ((200, 200),),
        ((2000, 2000),),
        # about half the words are rejected: nearly every stream is redrawn
        ((2**31 + 1, 9),),
        ((2**32, 5),),
        # two draws, as independent samples draw: unequal sizes, an odd
        # number of words, a size-1 sample that takes no word
        ((3, 3), (200, 200)),
        ((2000, 2000), (3, 3)),
        ((1, 1), (3, 3)),
        ((200, 200), (1, 1)),
        ((2**31 + 1, 3), (201, 201)),
    ],
)
def test_draws_match_generator(sizes):
    seed, lo, hi = 2**64 - 5, 10, 40
    got = draw_integers(stream_states(seed, lo, hi), sizes, Scratch())
    assert [draws.shape for draws in got] == [(hi - lo, size) for _, size in sizes]
    for row, b in enumerate(range(lo, hi)):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        for draws, (high, size) in zip(got, sizes):
            want = gen.integers(0, high, size)
            assert draws.dtype == want.dtype
            np.testing.assert_array_equal(draws[row], want)


def test_draws_in_threads_match_serial():
    # each call's scratch holds its own generator, so concurrent calls do
    # not read each other's streams
    states, sizes = stream_states(11, 0, 200), ((2000, 2000), (3, 3))
    want = draw_integers(states, sizes, Scratch())
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda _: draw_integers(states, sizes, Scratch()), range(8)))
    for got in results:
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def test_draws_into_reused_buffers():
    # one scratch for calls of several row counts on other streams; every
    # buffer starts out dirty, and the third size reads its words in two
    # pieces
    sizes = ((2**31 + 1, 9), (1, 3), (20_001, 20_001))
    scratch = Scratch()
    buffers = [scratch.take(("draws", i), (7, size), np.uint64) for i, (_, size) in enumerate(sizes)]
    raw = scratch.take("raw", (7, (9 + 20_001 + 1) // 2), np.uint64)
    for array in (raw, *buffers):
        array.fill(2**63 + 5)
    for seed, lo, hi in [(1, 0, 7), (2, 100, 103), (3, 5, 12), (4, 0, 1), (5, 2**32, 2**32 + 6)]:
        got = draw_integers(stream_states(seed, lo, hi), sizes, scratch)
        for draws, buffer in zip(got, buffers):
            assert draws.shape[0] == hi - lo and np.shares_memory(draws, buffer)
        for row, b in enumerate(range(lo, hi)):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
            for draws, (high, size) in zip(got, sizes):
                np.testing.assert_array_equal(draws[row], gen.integers(0, high, size))


def test_scratch_take_reuses_a_buffer_until_it_is_too_small():
    scratch = Scratch()
    first = scratch.take("a", (3, 4), np.float64)
    assert first.shape == (3, 4) and first.flags.c_contiguous
    # the same or a smaller size, in any shape, is a view of the same buffer
    for shape in [(3, 4), (2, 6), (5,)]:
        view = scratch.take("a", shape, np.float64)
        assert view.shape == shape and view.flags.c_contiguous
        assert view.ctypes.data == first.ctypes.data
    # another name has a buffer of its own
    assert not np.shares_memory(scratch.take("b", (3, 4), np.float64), first)
    # more values, or another dtype, take a new buffer, which is then kept
    larger = scratch.take("a", (13,), np.float64)
    assert not np.shares_memory(larger, first)
    assert scratch.take("a", (12,), np.float64).ctypes.data == larger.ctypes.data
    other = scratch.take("a", (2,), np.int64)
    assert other.dtype == np.int64 and not np.shares_memory(other, larger)
    # a pickled scratch is empty
    scratch.take("big", (1 << 17,), np.float64)
    assert len(pickle.dumps(scratch)) < 100
    assert pickle.loads(pickle.dumps(scratch))._buffers == {}
