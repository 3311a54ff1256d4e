"""Reference-speed probe: how fast this CPU runs at a given moment.

On a shared host the same epoch loop can take from 22 to 43 ms, depending on
load from other tenants that drifts over minutes; the slowdown shows in
process CPU time as much as in wall time, so no statistic over the run's own
timings removes it. The benchmark therefore times a fixed reference
computation (a few small numpy ops and a Python loop, about 2 ms) between
epochs and around every other measured interval, and reports each timing
scaled to the reference speed:

    scaled = raw * NOMINAL_S / median(probe times next to the interval)

A change to wsvad moves the raw time but not the probe, so it moves the
scaled time by the same share. Raw times are printed as well.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 0.002  # the probe's duration on an unloaded reference machine
NEAREST = 11  # probes that set the speed of a short interval


class Speedometer:
    """Collects probe samples and scales intervals by the speed around them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((32, 32)).astype(np.float32)
        self._wide = rng.standard_normal((64, 256)).astype(np.float32)
        self._tall = rng.standard_normal((256, 64)).astype(np.float32)
        self.at: list[float] = []  # probe midpoints, increasing
        self.took: list[float] = []  # probe durations
        self.spent = 0.0  # total seconds spent probing
        self._reference_work()  # warm caches before the first sample

    def _reference_work(self) -> float:
        acc = 0.0
        for i in range(60):
            x = self._small @ self._small
            acc += float(np.maximum(x, 0.5).sum())
            acc += float((self._wide @ self._tall)[0, 0])
            acc += sum(j * i for j in range(30))
        return acc

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._reference_work()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
            self.spent += time.perf_counter() - t0

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median probe time for the interval [t0, t1]:
        the probes inside it when there are at least NEAREST of them, else
        the NEAREST probes closest to its midpoint."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        if hi - lo >= NEAREST:
            picked = self.took[lo:hi]
        else:
            mid = (t0 + t1) / 2
            i = bisect.bisect_left(self.at, mid)
            near = sorted(range(max(0, i - NEAREST), min(len(self.at), i + NEAREST)), key=lambda j: abs(self.at[j] - mid))
            picked = [self.took[j] for j in near[:NEAREST]]
        if not picked:
            raise RuntimeError("no speed probe samples")
        return NOMINAL_S / float(np.median(picked))
