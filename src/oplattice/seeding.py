"""Deterministic sub-seeds and generators for the sampling sweeps.

Every randomized sweep derives one integer seed per (master seed, stream,
trial index) triple, so trial results do not depend on execution order
or on how many trials run. Stream identifiers are small integers kept
unique across the package by the `STREAM_*` constants below.

A sub-seed is exactly NumPy's ``SeedSequence((seed, stream, index))
.generate_state(1, np.uint64)[0]`` and a generator exactly
``np.random.default_rng(seed)``, but a whole stage of them is hashed at
once: `_hash` runs `SeedSequence`'s entropy mix and output hash over the
columns of a ``(words, n)`` uint32 array, one ufunc call per step, and
`generators` hands each column's four output words to NumPy's own `PCG64`
seeding. This module is the package's only caller of NumPy's seeding.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

# logic.lattice_report
STREAM_ORTHOMODULAR_Q = 1
STREAM_ORTHOMODULAR_R = 2
STREAM_DISTRIBUTIVE_P = 3
STREAM_DISTRIBUTIVE_Q = 4
STREAM_DISTRIBUTIVE_R = 5

# states sampling
STREAM_FAMILY_BASE = 11
STREAM_FAMILY_SPLIT = 12

# scenario runner
STREAM_SWEEP_STATE = 21
STREAM_SWEEP_FAMILY = 22
STREAM_STATE_CHECK = 23

# sectors: one generator per (stream, attempt), see `attempt_generator`
STREAM_BLOCK = 102
STREAM_GENERIC = 103

# SeedSequence's hash (numpy/random/bit_generator.pyx): a 4-word uint32 pool
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_OTHERS = [np.array([j for j in range(_POOL) if j != i]) for i in range(_POOL)]
_CYCLE = np.arange(8) % _POOL  # generate_state reads the pool round-robin (<= 4 uint64)


@lru_cache(maxsize=None)
def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants ``init * mult**i`` (mod 2^32), ``i < count``, as a column: they do
    not depend on the data, so each hash step takes a slice."""
    out, value = [], init
    for _ in range(count):
        out.append(value)
        value = value * mult & _MASK32
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` with ``consts[i]`` and ``consts[i + 1]`` on row i."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _hash(entropy: np.ndarray, n_out: int) -> np.ndarray:
    """``SeedSequence(column).generate_state(n_out, np.uint64)``, ``(n, n_out)``, for each
    column of an ``(L, n)`` uint32 entropy array, ``L >= 4`` (shorter entropy is zero-padded
    to the pool size, which hashes the same)."""
    length = entropy.shape[0]
    a = _constants(_INIT_A, _MULT_A, 4 * length + 1)
    pool = _hashmix(entropy[:_POOL], a[:_POOL + 1])
    k = _POOL
    for src, dst in enumerate(_OTHERS):  # each word into the 3 others, as one (3, n) step
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, length):  # words beyond the pool, each into all 4
        pool = _mix(pool, _hashmix(entropy[src], a[k:k + _POOL + 1]))
        k += _POOL
    out = _hashmix(pool[_CYCLE[:2 * n_out]], _constants(_INIT_B, _MULT_B, 2 * n_out + 1))
    low, high = out[0::2].astype(np.uint64), out[1::2].astype(np.uint64)
    return np.ascontiguousarray((low | high << np.uint64(32)).T)  # PCG64 reads rows in place


def _words(values) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian uint32 words ``(w, m)`` of nonnegative integers (a scalar is ``m = 1``)
    and each one's word count, as `SeedSequence` splits an integer (0 is one word). Integer
    arrays hold values below 2^64; Python ints, alone or in a list, may take any size."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        split = [_int_words(operator.index(x)) for x in np.ravel(np.array(values, dtype=object))]
        width = max(map(len, split), default=1)
        words = np.array([w + [0] * (width - len(w)) for w in split], dtype=np.uint32)
        return words.reshape(len(split), width).T, np.array([len(w) for w in split])
    if values.dtype.kind not in "iu":
        raise TypeError("seed must be integer")
    if values.dtype.kind == "i" and (values < 0).any():
        raise ValueError("expected non-negative integer")
    v = values.reshape(-1).astype(np.uint64)
    hi = (v >> np.uint64(32)).astype(np.uint32)
    return np.stack([v.astype(np.uint32), hi]), 1 + (hi != 0)


def _int_words(value: int) -> list[int]:
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _state(parts: tuple, n_out: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_out, np.uint64)``, ``(n, n_out)``, for the
    n entropy tuples that `parts` (scalars or length-n arrays) broadcast to."""
    if any(np.size(p) == 0 for p in parts):  # an empty batch: nothing to check or hash
        return np.empty((0, n_out), dtype=np.uint64)
    layout = [_words(p) for p in parts]
    sizes = {words.shape[1] for words, _ in layout} - {1}
    if len(sizes) > 1:
        raise ValueError(f"seed arrays of different lengths {sorted(sizes)}")
    n = sizes.pop() if sizes else 1
    entropy = np.zeros((max(_POOL, sum(len(words) for words, _ in layout)), n), dtype=np.uint32)
    columns, length = np.arange(n), np.zeros(1, dtype=np.intp)
    # each tuple's words in turn: a part's zero padding past its width is overwritten by the
    # next part's words or lies past the tuple's end (pool padding, or cut off by the hash)
    for words, width in layout:
        entropy[length + np.arange(len(words))[:, None], columns] = words
        length = length + width
    lengths = np.maximum(length, _POOL)
    out = np.empty((n, n_out), dtype=np.uint64)
    for size in sorted(set(lengths.tolist())):  # one hash per entropy length, mostly just 4
        group = lengths == size
        out[group] = _hash(entropy[:size, group], n_out)
    return out


def derive_seeds(seed, stream, index) -> np.ndarray:
    """``uint64`` sub-seeds of trials ``index`` of ``stream`` under ``seed``, any of them a
    length-n array: element i is ``SeedSequence((seed, stream, index)).generate_state(1,
    np.uint64)[0]`` on the i-th values."""
    return _state((seed, stream, index), 1)[:, 0]


def derive_seed(seed: int, stream: int, index: int) -> int:
    """Stable integer sub-seed for trial ``index`` of ``stream`` under ``seed``."""
    return int(derive_seeds(seed, stream, [index])[0])


def generators(seeds) -> list[np.random.Generator]:
    """``np.random.default_rng(int(s))`` for each of the nonnegative integer `seeds`."""
    pool_words = _pool_words_type()
    return [np.random.Generator(np.random.PCG64(pool_words(words)))
            for words in _state((seeds,), 4)]


@lru_cache(maxsize=None)
def _pool_words_type() -> type:
    """An `ISeedSequence` holding the four words ``SeedSequence(seed).generate_state(4,
    np.uint64)`` gives, already computed, for `np.random.PCG64` to seed itself from. Built on
    first use, so importing the package does not import `numpy.random`."""
    from numpy.random.bit_generator import ISeedSequence

    class PoolWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {len(self.words)} uint64 words, not {n_words} {dtype}")
            return self.words

    return PoolWords


def attempt_generator(stream: int, attempt: int) -> np.random.Generator:
    """A fresh generator of ``SeedSequence((stream, attempt))``: both fit one word, so that
    entropy is the one integer ``stream | attempt << 32``."""
    return np.random.Generator(np.random.PCG64(_pool_words_type()(_attempt_words(stream, attempt))))


@lru_cache(maxsize=64)  # the callers in `sectors` use 13 (stream, attempt) pairs
def _attempt_words(stream: int, attempt: int) -> np.ndarray:
    """`attempt_generator`'s four pool words, hashed once per pair: the stacked hash takes
    ~70 us at n = 1, a `PCG64` seeded from the cached words ~2 us."""
    words = _state(([stream | attempt << 32],), 4)[0]
    words.setflags(write=False)
    return words
