"""Host-speed calibration: a fixed computation that does not use mrbnn.

On a shared host, other tenants change how fast this process runs, on time
scales from seconds to tens of minutes, while its CPU time tracks its wall
time. Timing this fixed mix of Python object churn, broadcast numpy
temporaries and small numpy calls next to each pass measures the host's
current speed, so a pass's throughput can be scaled to a reference speed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median time of one rep on the reference host: a 2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread.
REFERENCE_REP_S = 0.012


@dataclass(frozen=True)
class _Sample:
    a: float
    b: float
    c: float
    d: float


class HostSpeed:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._x = rng.normal(size=(4000, 3))
        self._acts = rng.uniform(size=(64, 1, 144))
        self._rho = rng.uniform(size=(1, 32, 144))
        for _ in range(5):      # the first reps run slow
            self._rep()

    def _rep(self) -> None:
        d = self._x @ np.array([0.1, 0.2, 0.3])
        objs = tuple(_Sample(float(x[0]), float(x[1]), float(x[2]), float(v))
                     for x, v in zip(self._x, d))
        np.array([o.d for o in objs])
        for _ in range(2):
            np.sum(np.clip(self._acts * self._rho, 0.0, 1.0) * self._rho,
                   axis=2)
        for _ in range(100):
            np.cos(2.0 * np.pi * self._x[:50, 0] / 1550.0)

    def slowdown(self, budget_s: float, min_reps: int = 5) -> float:
        """Median rep time over at least ``min_reps`` reps and ``budget_s``
        seconds, relative to the reference host (> 1: slower)."""
        reps = []
        start = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            self._rep()
            reps.append(time.perf_counter() - t0)
        return statistics.median(reps) / REFERENCE_REP_S
