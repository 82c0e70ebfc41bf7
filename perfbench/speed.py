"""Speed-normalized timing for a shared, noisy machine.

The CPU this benchmark runs on is shared: the speed one process sees moves by
up to a factor of two within seconds as other tenants come and go.  A
`SpeedProbe` samples that speed while jobs run: every INTERVAL_S a SIGALRM
handler times a fixed pure-Python kernel (no trilin code).  A job's measured
seconds, minus the probe's own time, are scaled by REFERENCE_S over the
median kernel time around the job, i.e. reported as seconds on a machine
where the kernel takes REFERENCE_S.  A run prints its raw seconds as well.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array

import check

INTERVAL_S = 0.1
MARGIN_S = 0.5          # kernel samples this close to a job also count
MIN_KERNEL_SAMPLES = 5
REFERENCE_S = 0.0012    # the kernel's time at the reference speed
_N = 32
_EDGES = [(i, j) for i in range(_N) for j in (i + 1, i + 2, i + 3) if j < _N]
_PAIRS = [((i * 7919) % 1_000_003, (i * 104_729) % 1_000_019) for i in range(12_000)]


def kernel_seconds() -> float:
    """Geometric mean of two timings: T(G) of a small fixed graph (bytecode
    and small sets) and a dict and set over 12,000 tuples (allocation and a
    larger working set).  Together they track this program's speed better
    than either alone."""
    t0 = time.perf_counter()
    check.tlg_edges(_N, _EDGES)
    t1 = time.perf_counter()
    index = {pair: i for i, pair in enumerate(_PAIRS)}
    seen = set(index)
    sum(pair in seen for pair in _PAIRS[::4])
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


class SpeedProbe:
    """Kernel timings taken every INTERVAL_S while the context is open."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0

    def _sample(self, *_):
        d = kernel_seconds()
        self.at.append(time.perf_counter())
        self.took.append(d)
        self.spent += d

    def __enter__(self):
        for _ in range(MIN_KERNEL_SAMPLES):
            self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time from MARGIN_S before t0 to
        MARGIN_S after t1 (as far as samples exist yet), widened to the
        MIN_KERNEL_SAMPLES nearest samples."""
        lo = bisect.bisect_left(self.at, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.at, t1 + MARGIN_S)
        while hi - lo < MIN_KERNEL_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def time(self, fn):
        """(t0, t1, raw seconds, result) of fn(); raw excludes the probe's
        own samples taken meanwhile.  Normalize later with factor()."""
        spent0 = self.spent
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent0), result


def normalize_once(raw_s: float, samples: int = 15) -> float:
    """Normalize a time measured just before, from a burst of kernel runs
    (for set-up, which runs before any probe)."""
    return raw_s * REFERENCE_S / statistics.median(
        kernel_seconds() for _ in range(samples))
