"""Admission control: a bounded worker pool with load shedding.

The serving layer admits work through a :class:`ServeExecutor` — a fixed
pool of worker threads in front of a bounded queue.  Two admission checks
run *before* a request is accepted, each shedding with a typed
:exc:`~repro.errors.Overloaded` naming the tripped limit:

* **queue-full** — the bounded request queue is at ``queue_limit``.  Under
  sustained overload the server answers "try later" in microseconds instead
  of building an unbounded backlog whose tail latency grows without bound.
* **shutting-down** — :meth:`drain`/:meth:`shutdown` was called; nothing
  new is admitted while queued work finishes.

Ambient context (the resilience :class:`~repro.resilience.QueryGuard`, the
:class:`~repro.obs.Tracer`) is captured with
``contextvars.copy_context()`` at submission and restored inside the worker
thread, so a guard armed by the submitting thread still cancels the query
when it runs on a worker (``ContextVar`` values do not cross threads on
their own; see :func:`repro.resilience.current_guard`).

Every completed request feeds :class:`LatencyStats` (p50/p95/p99 over the
admit→finish wall time, plus queue-wait percentiles); the network front
end's ``stats`` op reports its snapshot, and its median service time sets
the ``retry_after`` hint a shed carries.  The per-client cap on the served
path is the front end's tenant quota.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from concurrent.futures import Future

from ..errors import Overloaded

_RUNNING = "running"
_DRAINING = "draining"
_STOPPED = "stopped"


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0 for an empty list).

    Nearest-rank (not interpolated) so the reported p99 is a latency some
    request actually experienced.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class LatencyStats:
    """Thread-safe latency and admission accounting for one executor.

    ``observe`` records one finished request (admit→finish wall ms and the
    portion spent queued); ``shed`` counts a rejected one.  Percentiles are
    computed over every recorded sample — serving benchmarks run seconds,
    not days, so an exact (unsampled) record is affordable and keeps the
    tail honest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total_ms: list[float] = []
        self._queue_ms: list[float] = []
        self.completed = 0
        self.failed = 0
        self.shed = 0

    # -- recording ---------------------------------------------------------------

    def observe(self, total_ms: float, queue_ms: float, ok: bool) -> None:
        with self._lock:
            self._total_ms.append(total_ms)
            self._queue_ms.append(queue_ms)
            if ok:
                self.completed += 1
            else:
                self.failed += 1

    def count_shed(self) -> None:
        with self._lock:
            self.shed += 1

    # -- reading -----------------------------------------------------------------

    @property
    def admitted(self) -> int:
        return self.completed + self.failed

    def percentile_ms(self, fraction: float) -> float:
        with self._lock:
            return percentile(self._total_ms, fraction)

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(0.50)

    @property
    def p95_ms(self) -> float:
        return self.percentile_ms(0.95)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(0.99)

    def queue_percentile_ms(self, fraction: float) -> float:
        with self._lock:
            return percentile(self._queue_ms, fraction)

    def retry_after_hint(
        self, backlog: int, workers: int, default: float = 0.05
    ) -> float:
        """Estimated seconds until a shed request stands a chance of admission.

        Derived from the observed median service time and the backlog the
        retry would queue behind: ``p50 · (backlog+1) / workers``, clamped
        to [10ms, 5s].  Before any sample exists, *default* stands in for
        the median.  The point is not precision — it is giving every shed
        client a load-derived pause so retries re-arrive spread out instead
        of on a synchronized backoff schedule.
        """
        with self._lock:
            service = percentile(self._total_ms, 0.50) / 1e3
        if service <= 0.0:
            service = default
        return min(5.0, max(0.01, service * (backlog + 1) / max(1, workers)))

    def snapshot(self) -> dict:
        """One consistent dictionary of counters and percentiles."""
        with self._lock:
            totals = list(self._total_ms)
            queues = list(self._queue_ms)
            completed, failed, shed = self.completed, self.failed, self.shed
        return {
            "admitted": completed + failed,
            "completed": completed,
            "failed": failed,
            "shed": shed,
            "p50_ms": round(percentile(totals, 0.50), 3),
            "p95_ms": round(percentile(totals, 0.95), 3),
            "p99_ms": round(percentile(totals, 0.99), 3),
            "queue_p95_ms": round(percentile(queues, 0.95), 3),
        }

    def describe(self) -> str:
        snap = self.snapshot()
        return (
            f"admitted={snap['admitted']} completed={snap['completed']} "
            f"failed={snap['failed']} shed={snap['shed']}  "
            f"p50={snap['p50_ms']:.2f}ms p95={snap['p95_ms']:.2f}ms "
            f"p99={snap['p99_ms']:.2f}ms"
        )


class _Job:
    __slots__ = ("future", "context", "fn", "args", "kwargs", "enqueued")

    def __init__(self, fn, args, kwargs):
        self.future: Future = Future()
        # The admission boundary is where ambient ContextVars would silently
        # drop to their defaults; copying the submitter's context here is
        # what carries guard/tracer into the worker.
        self.context = contextvars.copy_context()
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.enqueued = time.perf_counter()


class ServeExecutor:
    """Bounded worker pool with typed load shedding and graceful drain.

    :param workers: worker-thread count (the concurrency ceiling).
    :param queue_limit: requests allowed to *wait*; an arrival beyond it is
        shed with ``Overloaded("queue-full")``.  0 means no waiting room —
        a request is admitted only when a worker is free.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        queue_limit: int = 32,
        name: str = "serve",
    ) -> None:
        if workers < 1:
            raise ValueError("ServeExecutor needs at least one worker")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.queue_limit = queue_limit
        self.stats = LatencyStats()
        self.name = name
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: deque[_Job] = deque()
        self._running = 0
        self._state = _RUNNING
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission ---------------------------------------------------------------

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Admit one request, or shed it with :exc:`~repro.errors.Overloaded`.

        Returns a :class:`concurrent.futures.Future`; the callable runs on a
        worker thread inside a copy of the submitter's context.
        """
        job = _Job(fn, args, kwargs)
        with self._lock:
            if self._state != _RUNNING:
                self.stats.count_shed()
                raise Overloaded("shutting-down")
            # In-flight capacity = one request per worker plus queue_limit
            # of waiting room, so queue_limit=0 still admits up to
            # ``workers`` concurrent requests (none of them waiting).
            if len(self._queue) + self._running >= len(self._threads) + self.queue_limit:
                self.stats.count_shed()
                raise Overloaded(
                    "queue-full",
                    limit=self.queue_limit,
                    retry_after=self.stats.retry_after_hint(
                        len(self._queue) + self._running, len(self._threads)
                    ),
                )
            self._queue.append(job)
            self._has_work.notify()
        return job.future

    def run(self, fn, /, *args, timeout=None, **kwargs):
        """Admit, wait, and return the result (or raise what the job raised)."""
        return self.submit(fn, *args, **kwargs).result(timeout)

    # -- the workers -------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and self._state != _STOPPED:
                    self._has_work.wait()
                if not self._queue and self._state == _STOPPED:
                    return
                job = self._queue.popleft()
                self._running += 1
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._running -= 1
                    if not self._queue and self._running == 0:
                        self._idle.notify_all()

    def _execute(self, job: _Job) -> None:
        if not job.future.set_running_or_notify_cancel():
            return  # cancelled while queued: nothing ran, nothing to record
        started = time.perf_counter()
        queue_ms = (started - job.enqueued) * 1e3
        result, error = None, None
        try:
            result = job.context.run(job.fn, *job.args, **job.kwargs)
        except BaseException as err:  # noqa: BLE001 - relayed through the future
            error = err
        # Record the observation *before* publishing the result: the waiter
        # wakes the instant set_result runs, and a fast client could read a
        # stats snapshot that does not yet count its own completed request.
        total_ms = (time.perf_counter() - started) * 1e3 + queue_ms
        self.stats.observe(total_ms, queue_ms, error is None)
        if error is None:
            job.future.set_result(result)
        else:
            job.future.set_exception(error)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._state != _RUNNING

    @property
    def workers(self) -> int:
        """The worker-thread count (the concurrency ceiling)."""
        return len(self._threads)

    def pending(self) -> int:
        """Requests admitted but not yet finished (queued + running)."""
        with self._lock:
            return len(self._queue) + self._running

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting and wait for all admitted work to finish.

        Returns False if *timeout* elapsed first (the executor stays in the
        draining state; admitted work keeps running).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            if self._state == _RUNNING:
                self._state = _DRAINING
            while self._queue or self._running:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def shutdown(self, *, wait: bool = True, timeout: float | None = None) -> None:
        """Drain (when *wait*) then stop the workers.

        With ``wait=False`` every still-queued request is cancelled (its
        future raises :exc:`concurrent.futures.CancelledError`); running
        requests always finish — workers are cooperative, never killed.
        """
        if wait:
            self.drain(timeout)
        with self._lock:
            self._state = _STOPPED
            dropped = list(self._queue)
            self._queue.clear()
            self._has_work.notify_all()
        for job in dropped:
            job.future.cancel()
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "ServeExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown(wait=exc == (None, None, None))
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServeExecutor({self.name!r}, workers={len(self._threads)}, "
            f"pending={self.pending()}, state={self._state})"
        )
