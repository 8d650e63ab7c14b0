"""Percentiles and calibrated time."""

import pytest

from spine.calib import CAL_REF_MS, CalClock, percentile, supported


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.90) == 90
    assert percentile([7.0], 0.90) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2
    # Never interpolated: the result is a sample that occurred.
    assert percentile([1.0, 10.0], 0.5) == 1.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_p90_needs_ten_samples_beyond_it():
    assert supported(100, 0.90)
    assert not supported(99, 0.90)
    assert supported(20, 0.50)
    assert not supported(19, 0.50)
    assert not supported(0, 0.50)


class FakeBox:
    """A box that runs 1.6x slower between t=4 and t=7."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def slowdown(self):
        return 1.6 if 4.0 <= self.t < 7.0 else 1.0

    def work(self, nominal_s):
        """Advance time by *nominal_s* of work at the current speed."""
        self.t += nominal_s * self.slowdown()

    def kernel(self):
        self.work(CAL_REF_MS / 1e3)


def test_slow_episode_is_calibrated_out():
    box = FakeBox()
    clock = CalClock(kernel_fn=box.kernel, now=box.now)
    raw, calibrated = [], []
    intervals = []
    while box.t < 10.0:
        clock.sample()
        started = box.now()
        box.work(0.050)  # the same 50 ms op every time
        intervals.append((started, box.now()))
    clock.sample()
    for started, ended in intervals:
        raw.append((ended - started) * 1e3)
        calibrated.append(clock.calibrated_ms(started, ended))
    assert max(raw) / min(raw) == pytest.approx(1.6)
    # Away from the two episode edges every op reads 50 calibrated ms.
    inside = [c for c in calibrated if abs(c - 50.0) < 1e-6]
    assert len(inside) >= len(calibrated) - 6
    assert percentile(calibrated, 0.5) == pytest.approx(50.0)
    assert percentile(calibrated, 0.9) == pytest.approx(50.0)


def test_cal_at_takes_the_nearest_samples_in_time():
    clock = CalClock(kernel_fn=lambda: None, now=lambda: 0.0)
    for at, ms in [(0, 10), (1, 10), (2, 10), (3, 16), (4, 16), (5, 16), (6, 16), (7, 16)]:
        clock.add(float(at), float(ms))
    assert clock.cal_at(0.2) == 10      # {0,1,2,3,4} -> median 10
    assert clock.cal_at(6.5) == 16      # {3..7}
    assert clock.cal_at(100.0, nearest=3) == 16
    assert clock.cal_at(-5.0, nearest=9) == 16  # fewer samples than asked: all of them
    assert clock.calibrated_ms(5.0, 5.032) == pytest.approx(32 * CAL_REF_MS / 16)
