"""The machine's speed, sampled between requests, to scale request times.

On a VM that shares its host, the same request takes 20-60% longer in a
slow spell than in a fast one, and the spells last seconds to minutes, so
they do not average out within a run.  The benchmark therefore samples a
fixed reference job (a Python integer loop and three 60 x 60 symmetric
eigensolves, about 1 ms) in short bursts before every request and after
every pass, and scales each request's time by

    REF_S / (median reference time within WINDOW_S of the request)

A scaled time is what the request would have taken at the speed at which
the reference job takes REF_S.  The reference job is the benchmark's own
code: a change to banachgap cannot make it faster or slower, so a faster
program shows as a smaller scaled time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# The reference job's median time on a 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4, one BLAS thread); only the ratio to it matters.
REF_S = 1.0e-3
# Samples within this many seconds either side of a request set its speed.
WINDOW_S = 2.0
# Bursts spend this share of the time since the last burst, in whole samples.
BURST_SHARE = 0.03
MAX_BURST = 40

_A = np.random.Generator(np.random.PCG64(0)).standard_normal((60, 60))
_A = _A + _A.T


def reference_job() -> int:
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(3):
        np.linalg.eigvalsh(_A)
    return s


class Speedometer:
    def __init__(self):
        self.mid: list[float] = []  # sample midpoints, increasing
        self.dt: list[float] = []

    def burst(self, since_s: float = 0.0, count: int | None = None) -> None:
        """Sample the reference job ``count`` times, or as many times as
        BURST_SHARE of ``since_s`` allows (at least once)."""
        if count is None:
            count = min(MAX_BURST, max(1, math.ceil(BURST_SHARE * since_s / REF_S)))
        for _ in range(count):
            t0 = time.perf_counter()
            reference_job()
            t1 = time.perf_counter()
            self.mid.append(0.5 * (t0 + t1))
            self.dt.append(t1 - t0)

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median reference time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.mid, start - WINDOW_S)
        hi = bisect.bisect_right(self.mid, end + WINDOW_S)
        if lo == hi:  # no sample near: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.dt), hi + 1)
        return REF_S / statistics.median(self.dt[lo:hi])
