"""``python -m repro serve-bench``: throughput and tail latency under load.

A closed-loop serving benchmark: *threads* client threads each submit one
preferential IMDB query at a time through a :class:`ServeExecutor` sized to
the same thread count, against a fresh :class:`ServerSnapshot` per query —
exactly the per-request path a concurrent deployment runs.  A background
writer thread keeps mutating preferences through the server write path the
whole time, so the numbers include snapshot capture under writer churn, not
an idle read-only fast path.

Reported: sustained throughput (queries/s) plus the p50/p95/p99 of the
admit→finish latency and the p95 queue wait, straight from the executor's
:class:`~repro.serve.executor.LatencyStats`.  The same stats render to a
``serve.latency`` span for the obs sinks (``--trace-out``), giving serving
telemetry the same JSONL artifact path as query traces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..errors import Overloaded, ReproError
from .executor import ServeExecutor

#: Preferences every benchmark user starts with (loggable, multi-relation).
BENCH_SQL = """
    SELECT title, director, year FROM MOVIES
      NATURAL JOIN GENRES
      NATURAL JOIN DIRECTORS
    WHERE year >= 1980
    PREFERRING {names}
    TOP 10 BY score
"""


@dataclass
class ServeBenchReport:
    """Outcome of one serve-bench run."""

    threads: int
    duration: float
    strategy: str
    scale: float
    completed: int = 0
    failed: int = 0
    shed: int = 0
    writer_ops: int = 0
    elapsed: float = 0.0
    latency: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and self.failed == 0 and self.completed > 0

    @property
    def qps(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def describe(self) -> str:
        lines = [
            f"serve-bench: threads={self.threads} duration={self.duration}s "
            f"strategy={self.strategy} scale={self.scale}",
            f"  completed {self.completed} queries in {self.elapsed:.2f}s "
            f"→ {self.qps:.1f} q/s  (failed={self.failed} shed={self.shed})",
            "  latency: p50={p50_ms}ms p95={p95_ms}ms p99={p99_ms}ms "
            "queue-p95={queue_p95_ms}ms".format(**self.latency),
            f"  writer mutations during run: {self.writer_ops}",
        ]
        lines.extend(f"  ERROR {error}" for error in self.errors)
        lines.append("serve-bench: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def serve_bench(
    threads: int = 4,
    duration: float = 2.0,
    *,
    strategy: str = "gbu",
    scale: float = 0.001,
    seed: int = 42,
    queue_limit: int | None = None,
    session_limit: int | None = None,
    trace_sink=None,
    columnar: bool = False,
) -> ServeBenchReport:
    """Run the closed-loop serving benchmark; returns the report.

    Everything is in-memory (ephemeral server): the benchmark measures the
    snapshot/execute/admission path, not disk.  ``queue_limit`` defaults to
    ``2 × threads``; sheds are counted, not errors — closed-loop clients
    retry immediately.  ``columnar`` routes every served query through the
    columnar executor, measuring its behaviour under concurrent snapshot
    load.
    """
    from ..resilience.chaos_concurrent import _base_preference, preference_pool
    from ..serve.server import PreferenceServer
    from ..workloads.imdb import generate_imdb

    import random

    report = ServeBenchReport(
        threads=threads, duration=duration, strategy=strategy, scale=scale
    )
    server = PreferenceServer(generate_imdb(scale=scale, seed=seed))
    users = [f"bench{i}" for i in range(threads)]
    pool = preference_pool()
    for index, user in enumerate(users):
        server.add_preference(user, _base_preference())
        server.add_preference(user, pool[index % len(pool)])

    stop = threading.Event()

    def writer_loop() -> None:
        rng = random.Random(seed)
        ops = 0
        while not stop.is_set():
            user = rng.choice(users)
            preference = rng.choice(pool)
            try:
                if rng.random() < 0.5:
                    server.add_preference(user, preference)
                else:
                    server.remove_preference(user, preference.name)
                ops += 1
            except ReproError:
                pass  # duplicate add: expected churn
            time.sleep(0.001)  # steady background write rate, not a write storm
        report.writer_ops = ops

    def one_query(user: str):
        snapshot = server.snapshot()
        names = sorted(p.name for p in snapshot.store.preferences_of(user))
        session = snapshot.session_for(user)
        return session.execute(
            BENCH_SQL.format(names=", ".join(names)),
            strategy=strategy,
            columnar=columnar,
        )

    executor = ServeExecutor(
        workers=threads,
        queue_limit=2 * threads if queue_limit is None else queue_limit,
        session_limit=session_limit,
        name="serve-bench",
    )
    deadline = time.perf_counter() + duration

    def client_loop(client_id: int) -> None:
        user = users[client_id % len(users)]
        while time.perf_counter() < deadline:
            try:
                executor.run(one_query, user, session=user)
            except Overloaded:
                continue  # shed: already counted by the executor
            except ReproError as err:
                report.errors.append(f"client{client_id}: {err!r}")
                return
            except Exception as err:  # noqa: BLE001 - untyped failure fails the bench
                report.errors.append(f"client{client_id} untyped: {err!r}")
                return

    writer = threading.Thread(target=writer_loop, name="serve-bench-writer")
    clients = [
        threading.Thread(target=client_loop, args=(i,), name=f"serve-bench-client-{i}")
        for i in range(threads)
    ]
    started = time.perf_counter()
    writer.start()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    stop.set()
    writer.join()
    executor.shutdown()
    report.elapsed = time.perf_counter() - started
    stats = executor.stats.snapshot()
    report.completed = stats["completed"]
    report.failed = stats["failed"]
    report.shed = stats["shed"]
    report.latency = stats
    if trace_sink is not None:
        executor.report_to(
            trace_sink,
            meta={
                "benchmark": "serve-bench",
                "threads": threads,
                "duration_s": duration,
                "strategy": strategy,
                "scale": scale,
                "qps": round(report.qps, 2),
            },
        )
    return report
