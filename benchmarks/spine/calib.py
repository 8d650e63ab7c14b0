"""Calibrated time and percentiles for the spine benchmark.

The reference box changes speed for seconds to minutes at a time (host
steal/frequency: the same pure-Python loop reads 109 ms, then 178 ms, with
CPU time tracking wall time), so raw wall times of identical work differ by
up to 1.6x between processes.  Every spine timing is therefore reported in
*calibrated* ms::

    calibrated = raw * CAL_REF_MS / cal(t)

where ``cal(t)`` is the median of the calibration-kernel samples taken
nearest in time to the measured interval.  The kernel is a fixed
hash-join-shaped pure-Python loop, so it slows down and speeds up with the
interpreter work the program does.  A calibrated ms is "the time this work
takes on a box where the kernel takes CAL_REF_MS".
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

#: The kernel's nominal duration; calibrated times are scaled to it.
CAL_REF_MS = 10.0
#: Take a sample at least this often (seconds of measured work).
SAMPLE_EVERY_S = 0.1

_BUILD = [((i * 7919) % 4999, i * 0.5) for i in range(24000)]
_PROBE = [((i * 104729) % 5003, i, i * 0.31) for i in range(24000)]


def kernel() -> int:
    """Build a dict of lists from 2-tuples, probe it with 3-tuples."""
    table: dict[int, list[float]] = {}
    for key, value in _BUILD:
        bucket = table.get(key)
        if bucket is None:
            table[key] = [value]
        else:
            bucket.append(value)
    matched = 0
    for key, _, bound in _PROBE:
        bucket = table.get(key)
        if bucket is not None:
            for value in bucket:
                if value > bound:
                    matched += 1
    return matched


class CalClock:
    """Kernel samples over time, and the conversion they imply."""

    def __init__(self, kernel_fn=kernel, now=time.perf_counter) -> None:
        self._kernel = kernel_fn
        self.now = now
        self.times: list[float] = []  # sample mid-points, ascending
        self.cal_ms: list[float] = []

    def sample(self, count: int = 1) -> None:
        """Run the kernel *count* times with the collector off.

        The collector stays off so a sample never pays for traversing the
        program's heap; the previous collector state is restored.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = self.now()
                self._kernel()
                ended = self.now()
                self.add(0.5 * (started + ended), (ended - started) * 1e3)
        finally:
            if was_enabled:
                gc.enable()

    def add(self, at: float, cal_ms: float) -> None:
        self.times.append(at)
        self.cal_ms.append(cal_ms)

    def cal_at(self, at: float, nearest: int = 5) -> float:
        """Median of the *nearest* samples closest in time to *at*."""
        if not self.times:
            raise ValueError("no calibration samples")
        lo = hi = bisect.bisect_left(self.times, at)
        count = min(nearest, len(self.times))
        while hi - lo < count:
            take_left = lo > 0 and (
                hi >= len(self.times) or at - self.times[lo - 1] <= self.times[hi] - at
            )
            if take_left:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.cal_ms[lo:hi])

    def calibrated_ms(self, started: float, ended: float, nearest: int = 5) -> float:
        """The interval's duration in calibrated ms."""
        raw_ms = (ended - started) * 1e3
        return raw_ms * CAL_REF_MS / self.cal_at(0.5 * (started + ended), nearest)

    def summary(self) -> dict:
        """cal_ms p10/p50/p90 over the whole run (informational)."""
        return {
            "samples": len(self.cal_ms),
            "cal_p10_ms": percentile(self.cal_ms, 0.10),
            "cal_p50_ms": percentile(self.cal_ms, 0.50),
            "cal_p90_ms": percentile(self.cal_ms, 0.90),
        }


class Pacer:
    """Decides when the measured loop owes the clock a sample."""

    def __init__(self, clock: CalClock) -> None:
        self.clock = clock
        self._since = 0.0

    def spent(self, seconds: float) -> None:
        """Account *seconds* of measured work; sample when one is due."""
        self._since += seconds
        if self._since >= SAMPLE_EVERY_S:
            self.clock.sample()
            self._since = 0.0


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), fraction) - 1]


def _rank(count: int, fraction: float) -> int:
    return max(1, min(count, math.ceil(fraction * count - 1e-9)))


def supported(count: int, fraction: float, beyond: int = 10) -> bool:
    """True when at least *beyond* samples lie above the percentile's rank."""
    return count > 0 and count - _rank(count, fraction) >= beyond
