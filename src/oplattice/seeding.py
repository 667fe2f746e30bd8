"""Counter-based uniforms for the sampling stages, and the structure readers' generators.

A sampling stage draws all of its trials in one call: `uniforms(seed, stream, count, width)`
is a ``(count, width)`` array of doubles in [0, 1) from NumPy's Philox4x64-10 (Salmon,
Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011), keyed by
``SeedSequence((seed, stream))`` (`Philox` reads its ``generate_state(2, np.uint64)``) and
addressed by the trial. `Generator.random` takes one 64-bit word per double, and the width
is rounded up to whole 4-word blocks, so row i is the block run that starts at counter
``i w / 4``: it does not depend on how many rows are drawn, and no trial builds a generator.
Stream identifiers are small integers kept unique across the package by the `STREAM_*`
constants below. This module is the package's only caller of NumPy's seeding.
"""

from __future__ import annotations

import numpy as np

# logic.lattice_report
STREAM_ORTHOMODULAR_Q = 1  # the nested pair's element: q, and p cut inside it
STREAM_DISTRIBUTIVE_P = 3
STREAM_DISTRIBUTIVE_Q = 4
STREAM_DISTRIBUTIVE_R = 5

# the public samplers: each call is row 0 of its stream under its seed
STREAM_FAMILY = 11
STREAM_PROJECTOR = 12
STREAM_STATE = 13

# scenario runner
STREAM_SWEEP_STATE = 21
STREAM_SWEEP_FAMILY = 22
STREAM_STATE_CHECK = 23

# one `stream_generator` each, read by `sectors._decompose` and `sectors._generated_sectors`
STREAM_BLOCK = 102
STREAM_COMMUTANT = 104

_BLOCK = 4  # words per Philox4x64 block


def uniforms(seed: int, stream: int, count: int, width: int) -> np.ndarray:
    """Rows ``0 .. count - 1`` of `stream` under `seed`: ``(count, width)`` doubles in [0, 1),
    each row the ``53``-bit doubles of its own run of whole Philox blocks."""
    # a `key=` Philox would first build, and drop, a SeedSequence of OS entropy
    bits = np.random.Philox(np.random.SeedSequence((seed, stream)))
    blocks = -(-width // _BLOCK) * _BLOCK
    return np.random.Generator(bits).random((count, blocks))[:, :width]


def complex_normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller on the two halves ``a, b`` of the last axis of `u`: ``sqrt(-2 log(1 - a))
    e^{2 pi i b}``, whose real and imaginary parts are independent standard normals (0 at
    a = 0, so every entry is finite)."""
    k = u.shape[-1] // 2
    return np.sqrt(-2.0 * np.log1p(-u[..., :k])) * np.exp(2j * np.pi * u[..., k:2 * k])


def derive_seed(seed: int, stream: int, index: int) -> int:
    """Stable integer sub-seed for trial ``index`` of ``stream`` under ``seed``:
    ``SeedSequence((seed, stream, index)).generate_state(1, np.uint64)[0]``."""
    return int(np.random.SeedSequence((seed, stream, index)).generate_state(1, np.uint64)[0])


def stream_generator(stream: int) -> np.random.Generator:
    """A fresh ``np.random.default_rng(stream)`` on every call."""
    return np.random.default_rng(stream)
