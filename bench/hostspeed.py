"""Host speed measured with a fixed kernel, to take host drift out of timings.

On the shared 2-vCPU host this benchmark was built on, the same `close`
of weyl 16 takes 1.4-2.7 s back to back, with CPU time tracking wall time
and no steal: the host switches between a fast and a ~1.5x slower state
every few seconds, and a run's share of slow time varies from run to run.
A fixed kernel timed every quarter second of op time sees the same
states (over windows of ~7 s, dividing `close` timings by the kernel's
cut their spread from 16 % to 6 %), so timings divided by the kernel's
mean slowdown compare across runs. The kernel never calls the program, so
no change to the program moves it.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Typical kernel time on the reference host (2 vCPUs, numpy 2.4.6 with
# OpenBLAS 0.3.31 on one thread, Python 3.11). It only sets the scale.
NOMINAL_KERNEL_S = 0.011


class HostSpeed:
    """Kernel timings taken through a run; a slowdown above 1 means a slow host."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                      for _ in range(16)]
        self._nested = [[[float(x), float(x)] for x in rng.standard_normal(16)]
                        for _ in range(64)]
        self.samples: list[float] = []

    def _kernel(self) -> float:
        """What the program spends time on: small complex SVDs and products,
        a Python loop, and JSON encoding of nested float lists."""
        start = perf_counter()
        for i in range(120):
            m = self._mats[i % 16]
            np.linalg.svd(m @ m.conj().T)
        json.dumps(self._nested, indent=2)
        total = 0
        for i in range(30000):
            total += i * i
        return perf_counter() - start

    def measure(self) -> None:
        self.samples.append(self._kernel())

    def slowdown_around(self, index: int) -> float:
        """Slowdown seen by the samples just before and just after an op."""
        return (self.samples[index] + self.samples[index + 1]) / 2 / NOMINAL_KERNEL_S

    def mean_slowdown(self) -> float:
        """Mean slowdown: the mean tracks the share of time spent slow."""
        return statistics.fmean(self.samples) / NOMINAL_KERNEL_S
