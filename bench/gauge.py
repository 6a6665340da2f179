"""Host gauge: how fast the host runs Python while a pass is being timed.

On a shared host other tenants slow every instruction of a run, by a share
that switches within milliseconds and whose average drifts by tens of
percent over seconds and minutes; process CPU time slows with it, so it is
no refuge.  A pass of several seconds therefore varies by about ±20% from
one run to the next while the program does exactly the same work.

`Gauge` is a background thread that wakes every `INTERVAL_S`, runs a
fixed `unit()` of exact-rational dictionary arithmetic twice (the kind of
work limclose does, in code of its own, so no change to limclose moves it)
and records the second one's thread CPU time.  The samples interleave with the timed
work under the GIL, so they see the same host.  `factor(t0, t1)` is
`REF_UNIT_S` over the mean unit time in [t0, t1]; a time multiplied by it
is in reference seconds: what it would have taken on a host that runs the
unit in `REF_UNIT_S`.  While the thread samples it holds the GIL and the
timed work waits, so `busy(t0, t1)`, the sampling time inside [t0, t1], is
taken off a time before it is scaled.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from fractions import Fraction

# Typical unit time on a quiet 2.1 GHz Xeon vCPU (Python 3.11).
REF_UNIT_S = 2.5e-4
INTERVAL_S = 0.01
MIN_SAMPLES = 4     # a window with fewer samples is widened to this many

_A = {(i, j, k): Fraction(i + 1, j + 2)
      for i in range(4) for j in range(4) for k in range(2)}
_B = {(0, 1, 0): Fraction(1, 3), (1, 0, 0): Fraction(2, 3),
      (2, 1, 0): Fraction(1, 1)}


def unit():
    """Multiply two sparse polynomials with rational coefficients."""
    product = {}
    for (a0, a1, a2), ca in _A.items():
        for (b0, b1, b2), cb in _B.items():
            m = (a0 + b0, a1 + b1, a2 + b2)
            product[m] = product.get(m, 0) + ca * cb
    return product


def sample():
    """(start, end) on the perf_counter clock and the thread CPU seconds of
    one unit, timed after an untimed unit has warmed the caches that the
    timed work evicted.  The garbage collector is held off so that it never
    charges a collection of the timed program's objects to the unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        c0 = time.thread_time()
        unit()
        c1 = time.thread_time()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return start, end, c1 - c0


def burst(n=40):
    """Mean unit time of `n` units run back to back, in this thread."""
    return statistics.fmean(sample()[2] for _ in range(n))


class Gauge:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []    # midpoints
        self.units: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            start, end, u = sample()
            self.starts.append(start)
            self.ends.append(end)
            self.times.append((start + end) / 2)
            self.units.append(u)

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def factor(self, t0, t1):
        """REF_UNIT_S over the mean unit time sampled in [t0, t1], widened
        about its middle to MIN_SAMPLES samples; 1.0 with no samples."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        if hi <= lo:
            return 1.0
        return REF_UNIT_S / statistics.fmean(self.units[lo:hi])

    def busy(self, t0, t1):
        """Seconds of sampling inside [t0, t1]."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(min(e, t1) - max(b, t0)
                   for b, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
