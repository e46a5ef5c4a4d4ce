"""Derivation of reproducible, independent random streams.

All stochastic code in the package draws from streams keyed by
``(seed, *key)``: the stream of ``child_rng(seed, *key)``, numpy's PCG64
seeded by ``SeedSequence(seed, spawn_key=key)``. The mapping is stable:
the same key always yields the same stream no matter how many other
streams exist or in which order they are created, so parallel and
sequential execution produce identical results.

The bootstrap reads many streams keyed ``(seed, b)``, a few hundred to
a few thousand values from each, where building one ``Generator`` per
stream would cost more than its draws. :func:`stream_states` derives the PCG64 states of a
whole range of such keys at once, running numpy's documented algorithms
on arrays: the ``SeedSequence`` hash mixes (O'Neill's ``seed_seq``
design, adopted under NEP 19) on uint32 words, then the PCG64
set-sequence seeding (O'Neill 2014, "PCG: A family of simple fast
space-efficient statistically good algorithms for random number
generation"), two steps of its 128-bit LCG, on pairs of uint64 arrays.
:func:`draw_integers` then draws from those states what
``Generator.integers`` would, by numpy's 32-bit Lemire rule applied to
the streams' raw 64-bit words, into the buffers of a :class:`Scratch`
that a caller drawing chunk after chunk reuses. The scratch also holds the
one generator whose bit generator is put at each stream in turn, so all
per-call draw state lives in it: concurrent callers each pass their own.
A stream with a rejected word is drawn again by ``Generator.integers`` on
its state, so numpy's rejection loop is the only one. Both are checked
against numpy itself in the tests.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The most values a loop over a long axis takes at once: raw words per
# random_raw call, keys whose states are derived together, observations per
# covariance block. 8-byte arrays of this size (64 KB) stay below glibc's
# default 128 KB mmap threshold, so they reuse heap memory instead of
# faulting in fresh pages, and memory beyond a loop's result stays bounded.
_BLOCK = 1 << 13


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the stream identified by ``(seed, *key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def child_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit integer seed for the stream identified by ``(seed, *key)``.

    Used to hand a nested procedure (e.g. the bootstrap inside one Monte
    Carlo replicate) its own root seed.
    """
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an int: little-endian uint32 words."""
    out = [value & _M32]
    while value > _M32:
        value >>= 32
        out.append(value & _M32)
    return out


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words, as ints or uint64 arrays."""
    out = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _M32
    return out ^ (out >> 16)


class _Hash:
    """SeedSequence's running hash of 32-bit words, as ints or uint64
    arrays; its constant depends only on how many words it has hashed."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        old, self.const = self.const, self.const * self.mult & _M32
        value = (value ^ old) * self.const & _M32
        return value ^ (value >> 16)


def _states_of_width(seed_words: list[int], lo: int, hi: int, width: int) -> np.ndarray:
    """:func:`stream_states` of keys ``(seed, b)`` whose ``b`` all have
    ``width`` uint32 words."""
    b = np.arange(lo, hi, dtype=np.uint64 if hi <= 1 << 64 else object)
    key = [((b >> (32 * i)) & _M32).astype(np.uint64) for i in range(width)]
    # mix_entropy: hash the first pool-size words in and mix them together
    # (on ints: they are the seed's alone), then fold each further word into
    # every pool word
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in seed_words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in seed_words[_POOL_SIZE:] + key:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words cycled from the pool,
    # paired low word first
    hashgen = _Hash(_INIT_B, _MULT_B)
    out = [hashgen(pool[i % _POOL_SIZE]) for i in range(8)]
    s0, s1, s2, s3 = (out[2 * i] | (out[2 * i + 1] << 32) for i in range(4))
    # PCG64's set-sequence seeding on (state, sequence) = (s0:s1, s2:s3):
    # inc = sequence << 1 | 1, state = (inc + s0:s1) * multiplier + inc,
    # in 128-bit words held as (high, low) uint64 halves
    one = np.uint64(1)
    inc = (s2 << one) | (s3 >> np.uint64(63)), (s3 << one) | one
    state = _mul_mult(_add128(inc, (s0, s1)))
    return np.stack((*_add128(state, inc), *inc), axis=1)


def _add128(x, y):
    """``x + y`` mod 2**128 of (high, low) uint64 halves."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < y[1]), low


def _mul_mult(x):
    """``x * _PCG_MULT`` mod 2**128 of (high, low) uint64 halves."""
    high, low = x
    # the high half of low * (the multiplier's low half), from 32-bit limbs
    m0, m1 = (np.uint64(_PCG_MULT >> shift & _M32) for shift in (0, 32))
    x0, x1 = low & np.uint64(_M32), low >> np.uint64(32)
    p00, p01, p10, p11 = x0 * m0, x0 * m1, x1 * m0, x1 * m1
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    carry = p11 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    mult_high, mult_low = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _M64)
    return carry + low * mult_high + high * mult_low, low * mult_low


def stream_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """PCG64 states of the streams keyed ``(seed, b)``, ``lo <= b < hi``.

    Row ``b - lo`` holds four uint64 words, the high and low halves of
    ``state`` and then of ``inc``, such that
    ``PCG64(SeedSequence(seed, spawn_key=(b,))).state["state"]`` is
    ``{"state": w0 << 64 | w1, "inc": w2 << 64 | w3}``.
    The keys are derived in blocks of at most ``_BLOCK``: the derivation
    holds a few dozen arrays as long as the block it derives, so memory
    beyond the result stays bounded however many streams there are.
    """
    seed_words = _words(operator.index(seed))
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    out = np.empty((max(hi - lo, 0), 4), dtype=np.uint64)
    start = lo
    while start < hi:
        width = len(_words(start))
        stop = min(hi, 1 << (32 * width), start + _BLOCK)
        out[start - lo : stop - lo] = _states_of_width(seed_words, start, stop, width)
        start = stop
    return out


class Scratch:
    """Named buffers, and a generator, that calls made one after another reuse.

    :meth:`take` hands out a view of the buffer kept under a name, and
    allocates a new one only when a call asks for more values or another
    dtype than it holds, so a caller that asks for the same arrays chunk
    after chunk allocates them once. A name serves one array at a time: a
    view is valid until the next ``take`` of its name. A scratch pickles
    empty, so each process that unpickles one fills its own. It serves one
    caller at a time.
    """

    def __init__(self):
        self._buffers = {}

    def __reduce__(self):
        return Scratch, ()

    def take(self, name, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A contiguous ``shape`` array of ``dtype`` on the buffer kept as
        ``name``, holding whatever was last written there."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)

    @cached_property
    def generator(self) -> np.random.Generator:
        """The generator :func:`draw_integers` puts at each stream in turn,
        seeded once (about 15 us, more than a small chunk's draws)."""
        return np.random.Generator(np.random.PCG64(0))


def draw_integers(
    states: np.ndarray, sizes: tuple[tuple[int, int], ...], scratch: Scratch
) -> list[np.ndarray]:
    """``[g.integers(0, high, size) for high, size in sizes]`` for a fresh
    ``g`` on each stream of ``states`` (rows of :func:`stream_states`),
    stacked: entry ``i`` holds one row of ``sizes[i][1]`` draws per stream.
    Every ``high`` is at most 2**32. The streams' raw words and the draws
    are taken from ``scratch`` (as ``"raw"`` and ``("draws", i)``), so the
    entries are valid until the next call that is given it.

    The scratch's generator takes each stream's state and reads its raw
    64-bit words. numpy draws below such a ``high`` from 32-bit words, the low half
    of a raw word and then its high half, one per value: word ``w`` gives
    ``(w * high) >> 32`` unless ``(w * high) mod 2**32`` falls below
    ``2**32 mod high``, where it is rejected and the next word tried
    (Lemire 2019, "Fast random integer generation in an interval"). A bound
    of 1 takes no word. Each draw reads on where the one before it stopped.
    The rare streams with a rejected word are drawn again by
    ``Generator.integers`` itself.
    """
    gen = scratch.generator
    bits, rows = gen.bit_generator, len(states)
    spans = [size if high > 1 else 0 for high, size in sizes]
    raw = scratch.take("raw", (rows, (sum(spans) + 1) // 2), np.uint64)
    width = raw.shape[1]
    keys = [(s0 << 64 | s1, s2 << 64 | s3) for s0, s1, s2, s3 in states.tolist()]
    pieces = [(start, min(_BLOCK, width - start)) for start in range(0, width, _BLOCK)]
    for row, key in enumerate(keys):
        bits.state = _pcg64_state(*key)
        for start, size in pieces:
            raw[row, start : start + size] = bits.random_raw(size)
    # little-endian words split low half first on any machine (a copy only
    # where the native order is big-endian)
    words = raw.astype("<u8", copy=False).view("<u4")
    out, redo, start = [], np.zeros(rows, dtype=bool), 0
    for i, ((high, size), span) in enumerate(zip(sizes, spans)):
        scaled = scratch.take(("draws", i), (rows, size), np.uint64)
        draws = scaled.view(np.int64)
        out.append(draws)
        if not span:
            draws.fill(0)
            continue
        np.multiply(words[:, start : start + span], np.uint64(high), out=scaled)
        start += span
        threshold = 2**32 % high
        if threshold:
            low = scaled.astype("<u8", copy=False).view("<u4")[:, 0::2]  # low halves
            redo |= low.min(axis=1) < threshold
        scaled >>= np.uint64(32)
    for row in np.flatnonzero(redo):
        bits.state = _pcg64_state(*keys[row])
        for (high, size), draws in zip(sizes, out):
            draws[row] = gen.integers(0, high, size)
    return out


def _pcg64_state(state: int, inc: int) -> dict:
    """``PCG64.state`` of a freshly seeded generator at ``(state, inc)``."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
