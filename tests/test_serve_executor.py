"""ServeExecutor: admission control, load shedding, drain, context hand-off."""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

import pytest

from repro.errors import Overloaded
from repro.obs import Tracer, current_tracer, use_tracer
from repro.resilience import QueryGuard, current_guard, use_guard
from repro.serve.executor import LatencyStats, ServeExecutor, percentile


class Blocker:
    """A job that parks on an event until the test releases it."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self):
        self.entered.set()
        assert self.release.wait(timeout=10)
        return "done"


# -- happy path ----------------------------------------------------------------


def test_run_returns_result_and_records_stats():
    with ServeExecutor(workers=2) as executor:
        assert executor.run(lambda a, b: a + b, 2, 3) == 5
        assert executor.run(str.upper, "ok") == "OK"
    assert executor.stats.completed == 2
    assert executor.stats.failed == 0
    assert executor.stats.p50_ms >= 0.0


def test_job_exception_relayed_and_counted():
    with ServeExecutor(workers=1) as executor:
        future = executor.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result(timeout=5)
    assert executor.stats.failed == 1
    assert executor.stats.completed == 0


# -- load shedding -------------------------------------------------------------


def test_queue_full_sheds_with_typed_overloaded():
    blocker = Blocker()
    executor = ServeExecutor(workers=1, queue_limit=0)
    try:
        running = executor.submit(blocker)
        assert blocker.entered.wait(timeout=5)
        with pytest.raises(Overloaded) as excinfo:
            executor.submit(lambda: "rejected")
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.limit == 0
        assert executor.stats.shed == 1
    finally:
        blocker.release.set()
        assert running.result(timeout=5) == "done"
        executor.shutdown()


def test_queue_limit_zero_still_admits_one_per_worker():
    blockers = [Blocker() for _ in range(2)]
    executor = ServeExecutor(workers=2, queue_limit=0)
    try:
        futures = [executor.submit(b) for b in blockers]
        for b in blockers:
            assert b.entered.wait(timeout=5)  # both admitted, both running
    finally:
        for b in blockers:
            b.release.set()
        for f in futures:
            assert f.result(timeout=5) == "done"
        executor.shutdown()


def test_shutting_down_sheds_new_arrivals():
    executor = ServeExecutor(workers=1)
    executor.shutdown()
    with pytest.raises(Overloaded) as excinfo:
        executor.submit(lambda: "late")
    assert excinfo.value.reason == "shutting-down"


# -- drain and shutdown --------------------------------------------------------


def test_drain_waits_for_admitted_work():
    blocker = Blocker()
    executor = ServeExecutor(workers=1)
    future = executor.submit(blocker)
    assert blocker.entered.wait(timeout=5)
    assert executor.drain(timeout=0.05) is False  # still running
    assert executor.draining
    blocker.release.set()
    assert executor.drain(timeout=5) is True
    assert future.result(timeout=1) == "done"
    assert executor.pending() == 0
    executor.shutdown()


def test_shutdown_without_wait_cancels_queued_jobs():
    blocker = Blocker()
    executor = ServeExecutor(workers=1, queue_limit=4)
    running = executor.submit(blocker)
    assert blocker.entered.wait(timeout=5)
    queued = executor.submit(lambda: "never ran")
    executor_thread = threading.Thread(
        target=executor.shutdown, kwargs={"wait": False}
    )
    executor_thread.start()
    with pytest.raises(CancelledError):
        queued.result(timeout=5)  # cancelled while the worker is still busy
    blocker.release.set()
    executor_thread.join(timeout=10)
    assert running.result(timeout=5) == "done"


# -- ambient context crosses the thread boundary -------------------------------


def test_guard_and_tracer_propagate_into_workers():
    guard = QueryGuard(timeout=60.0)
    tracer = Tracer()

    def observed():
        return current_guard(), current_tracer()

    with ServeExecutor(workers=1) as executor:
        # Without anything installed, the worker sees the no-op defaults.
        bare_guard, bare_tracer = executor.run(observed)
        assert bare_guard is not guard and bare_tracer is not tracer
        # Installed at submit time, the copied context carries both across.
        with use_guard(guard), use_tracer(tracer):
            seen_guard, seen_tracer = executor.run(observed)
        assert seen_guard is guard
        assert seen_tracer is tracer


def test_context_is_per_submission_not_sticky():
    guard = QueryGuard(timeout=60.0)
    with ServeExecutor(workers=1) as executor:
        with use_guard(guard):
            assert executor.run(current_guard) is guard
        assert executor.run(current_guard) is not guard  # later jobs run clean


# -- latency accounting --------------------------------------------------------


def test_percentile_nearest_rank():
    assert percentile([], 0.95) == 0.0
    assert percentile([7.0], 0.5) == 7.0
    samples = [float(n) for n in range(1, 101)]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile(samples, 0.5) == 51.0  # nearest rank over 100 samples
    assert percentile(samples, 0.95) in samples  # always an observed value


def test_latency_stats_snapshot():
    stats = LatencyStats()
    for ms in (1.0, 2.0, 3.0, 4.0):
        stats.observe(ms, queue_ms=0.5, ok=True)
    stats.observe(100.0, queue_ms=50.0, ok=False)
    stats.count_shed()
    snap = stats.snapshot()
    assert snap["admitted"] == 5
    assert snap["completed"] == 4
    assert snap["failed"] == 1
    assert snap["shed"] == 1
    assert snap["p99_ms"] == 100.0
    assert snap["queue_p95_ms"] == 50.0
    assert "p50" in stats.describe()


def test_latency_stats_empty_is_all_zeros():
    stats = LatencyStats()
    snap = stats.snapshot()
    assert snap == {
        "admitted": 0, "completed": 0, "failed": 0, "shed": 0,
        "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0, "queue_p95_ms": 0.0,
    }
    assert stats.p50_ms == stats.p95_ms == stats.p99_ms == 0.0


def test_latency_stats_single_sample_is_every_percentile():
    stats = LatencyStats()
    stats.observe(42.0, queue_ms=3.0, ok=True)
    assert stats.p50_ms == 42.0
    assert stats.p95_ms == 42.0
    assert stats.p99_ms == 42.0
    assert stats.queue_percentile_ms(0.99) == 3.0


def test_latency_stats_ties_at_percentile_boundaries():
    stats = LatencyStats()
    # Heavy ties: the rank that p50/p95 land on must still be a value some
    # request actually experienced, and ties must not skew the ordering.
    for ms in (5.0, 5.0, 5.0, 5.0, 9.0):
        stats.observe(ms, queue_ms=0.0, ok=True)
    assert stats.p50_ms == 5.0
    assert stats.p95_ms == 9.0  # nearest rank lands on the lone outlier
    all_same = LatencyStats()
    for _ in range(10):
        all_same.observe(2.5, queue_ms=2.5, ok=True)
    for fraction in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert all_same.percentile_ms(fraction) == 2.5


def test_retry_after_hint_bounds_and_scaling():
    stats = LatencyStats()
    # No samples yet: the default service-time estimate stands in.
    assert stats.retry_after_hint(backlog=0, workers=1) == pytest.approx(0.05)
    # Tiny service times clamp to the 10ms floor...
    stats.observe(0.001, queue_ms=0.0, ok=True)
    assert stats.retry_after_hint(backlog=0, workers=8) == 0.01
    # ...huge backlogs clamp to the 5s ceiling...
    slow = LatencyStats()
    slow.observe(2_000.0, queue_ms=0.0, ok=True)
    assert slow.retry_after_hint(backlog=100, workers=1) == 5.0
    # ...and in between the hint scales with backlog over workers.
    mid = LatencyStats()
    mid.observe(100.0, queue_ms=0.0, ok=True)
    assert mid.retry_after_hint(backlog=3, workers=2) == pytest.approx(0.2)
    assert mid.retry_after_hint(backlog=3, workers=4) == pytest.approx(0.1)


def test_queue_full_shed_carries_a_retry_after_hint():
    blocker = Blocker()
    executor = ServeExecutor(workers=1, queue_limit=0)
    try:
        running = executor.submit(blocker)
        assert blocker.entered.wait(timeout=5)
        with pytest.raises(Overloaded) as excinfo:
            executor.submit(lambda: "no")
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.retry_after is not None
        assert 0.01 <= excinfo.value.retry_after <= 5.0
    finally:
        blocker.release.set()
        assert running.result(timeout=5) == "done"
        executor.shutdown()


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ServeExecutor(workers=0)
    with pytest.raises(ValueError):
        ServeExecutor(workers=1, queue_limit=-1)
