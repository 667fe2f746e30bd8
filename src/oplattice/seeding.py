"""Deterministic sub-seed derivation for the sampling sweeps.

Every randomized sweep derives one integer seed per (master seed, stream,
trial index) triple, so trial results do not depend on execution order
or on how many trials run. Stream identifiers are small integers kept
unique across the package by the `STREAM_*` constants below.
"""

from __future__ import annotations

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


def derive_seed(seed: int, stream: int, index: int) -> int:
    """Stable integer sub-seed for trial ``index`` of ``stream`` under ``seed``."""
    ss = np.random.SeedSequence((int(seed), int(stream), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
