"""Host-speed reference: a fixed pure-Python loop timed between operations.

The shared host this benchmark runs on changes speed by up to 2x over a
few seconds, and the same seed then reads up to 30% apart between runs.
Every timing the benchmark reports is therefore scaled to a nominal host
speed: a measured interval is multiplied by REFERENCE_NOMINAL_S over the
median time of the reference loop in the samples taken around it.  The loop
belongs to the benchmark, so a change to divclass cannot move it; it runs
with the garbage collector off, so heap left behind by divclass cannot
either.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REFERENCE_ITERS = 150
TABLE_SIZE = 25_000  # about 4 MB of tables, well past a core's own caches
# The reference loop's median time on a 2-vCPU Xeon at 2.1 GHz under
# Python 3.11; a reported second is a second at that speed.
REFERENCE_NOMINAL_S = 1.0e-3
SAMPLE_EVERY_S = 0.1  # take a reference sample at least this often
WINDOW_S = 0.5  # reference samples within this distance scale an interval

_table: dict[int, int] = {}
_keys: list[int] = []


def _reference_work() -> int:
    """Random reads from tables of a few MB plus small Fraction, list and
    big-integer arithmetic: the host slows this loop about as much as it
    slows divclass, which a loop that stays in cache would not show."""
    if not _keys:
        for i in range(TABLE_SIZE):
            _table[(i * 2654435761) % 1_000_003] = i + 1000
        _keys.extend(_table)
    sums: dict[tuple[int, int], Fraction] = {}
    total = 0
    x = 1
    for i in range(REFERENCE_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = _keys[x % TABLE_SIZE]
        value = _table[key]
        slot = (i % 5, key % 7)
        sums[slot] = sums.get(slot, Fraction(0)) + Fraction(value, 3)
        total += sum([j * j for j in range(12)]) + value**5 % 1_000_003
    return total + len(sums)


def sample() -> float:
    """Seconds one run of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def median_sample(count: int = 7) -> float:
    return statistics.median(sample() for _ in range(count))


def factor(reference_s: float) -> float:
    """Multiplier that scales a time measured at this reference speed."""
    return REFERENCE_NOMINAL_S / reference_s


class Clock:
    """Reference samples along a closed loop, then scaled op times.

    Call `tick()` between operations; it samples when the last sample is
    older than SAMPLE_EVERY_S.  `scale(at, seconds)` scales an interval
    that started at `at` (time.perf_counter()) by the median of the samples
    within WINDOW_S of its middle, or of the nearest samples when none are.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def tick(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= SAMPLE_EVERY_S:
            self.samples.append(sample())
            self.times.append(now)

    def scale(self, at: float, seconds: float) -> float:
        mid = at + seconds / 2
        lo = bisect.bisect_left(self.times, mid - WINDOW_S)
        hi = bisect.bisect_right(self.times, mid + WINDOW_S)
        if lo == hi:
            near = bisect.bisect_left(self.times, mid)
            lo, hi = max(near - 1, 0), min(near + 1, len(self.times))
        return seconds * factor(statistics.median(self.samples[lo:hi]))
