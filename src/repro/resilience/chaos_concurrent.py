"""Concurrent chaos: writers mutate state while readers must stay exact.

:func:`run_concurrent_chaos` (``python -m repro chaos --scenario
concurrent``) drives the shared op model (:mod:`repro.resilience.opmodel`)
through threads.  Each of N writer threads applies its own op stream to a
live :class:`~repro.serve.server.PreferenceServer`; it owns
:data:`USERS_PER_WRITER` users and one primary-key range, so every write
must succeed.  Every bucket holds a preference before the first read.  M
reader threads, admitted through a
:class:`~repro.serve.executor.ServeExecutor`, each capture a snapshot and
run the model's read on the production path, block memo included.  The
contract is snapshot isolation: every read must be exact against
``reference`` evaluated *on its own snapshot*, or fail with a typed
query-guard error.  A sampled digest-before/digest-after check proves no
writer mutated a captured snapshot in place.

Row inserts move the data version, which empties the block memo, so
writers hold each one back until one read per strategy has finished since
the last; preference writes run unpaced.  Several reads then share each
data version, as they do on a served workload whose profiles change far
more often than its data.

Crash recovery is checked by :mod:`repro.resilience.crashtest`, not here.

Verdicts are deterministic even though thread interleavings are not: each
cell is judged against the snapshot it actually captured, so *every*
interleaving must pass.
"""

from __future__ import annotations

import random
import threading
from collections import deque

from ..errors import QueryCancelled, QueryTimeout, ReproError, ResourceExhausted
from .guard import QueryGuard
from .opmodel import (
    Cell,
    Report,
    advance,
    answer_digest,
    apply_op,
    judge_read,
    op_stream,
    read_sql,
)

#: The only typed errors a reader cell may fail with: its query guard tripped.
_GUARD_ERRORS = (QueryTimeout, QueryCancelled, ResourceExhausted)

#: Users each writer owns: enough that some bucket is almost never empty.
USERS_PER_WRITER = 3

#: Strategies that send FtP's preference-free block to the block memo.
#: Reads rotate through them first, so the wrap-around of even the
#: smallest run probes that block a fourth time at one data version.
_SHARED_BLOCK = ("ftp", "plugin-rma", "plugin-shared")


def run_concurrent_chaos(
    seed: int = 42,
    scale: float = 0.001,
    writers: int = 4,
    readers: int = 4,
    queries_per_reader: int = 8,
    sanitize: bool | None = None,
) -> Report:
    """N writers mutate the live server while M readers must stay exact
    (see the module docstring); readers run *queries_per_reader* reads each.

    *sanitize* (default: the ``REPRO_SANITIZE`` environment switch) runs
    the whole scenario under a fresh concurrency sanitizer — this is the
    run where lock-order and COW findings would actually appear, since all
    threads hammer one server; any SANxxx finding lands in
    ``report.errors`` and fails the run.
    """
    from ..analysis_static.sanitizer import env_sanitize_enabled, use_sanitizer

    if sanitize is None:
        sanitize = env_sanitize_enabled()
    if not sanitize:
        return _run(seed, scale, writers, readers, queries_per_reader)
    with use_sanitizer() as sanitizer:
        report = _run(seed, scale, writers, readers, queries_per_reader)
    report.errors.extend(f"sanitizer: {finding}" for finding in sanitizer.findings)
    return report


def _run(seed: int, scale: float, writers: int, readers: int, queries_per_reader: int) -> Report:
    from ..pexec.engine import STRATEGIES
    from ..serve.executor import ServeExecutor
    from ..serve.server import PreferenceServer
    from ..workloads.imdb import generate_imdb

    strategies = sorted(
        (s for s in STRATEGIES if s != "reference"), key=lambda s: s not in _SHARED_BLOCK
    )
    report = Report(
        "concurrent chaos",
        f"seed={seed} scale={scale} writers={writers} readers={readers}",
    )
    server = PreferenceServer(generate_imdb(scale=scale, seed=seed))
    users = [f"u{i}" for i in range(USERS_PER_WRITER * max(1, writers))]
    streams = [
        op_stream(seed * 1009 + i, users[i::writers], first_key=10_000_000 * (i + 1))
        for i in range(writers)
    ]
    try:
        for i, stream in enumerate(streams):
            advance(server, stream, users[i::writers])
    except ReproError as err:
        report.errors.append(f"warm-up write: {err!r}")
        return report
    stop_writers = threading.Event()
    lock = threading.Lock()
    reads_since_insert = 0

    def insert_allowed() -> bool:
        nonlocal reads_since_insert
        with lock:
            if reads_since_insert < len(strategies):
                return False
            reads_since_insert = 0
            return True

    def writer_loop(writer_id: int) -> None:
        held: deque = deque()  # row inserts waiting for their pace
        applied = 0
        try:
            for op in streams[writer_id]:
                if stop_writers.is_set():
                    break
                if op[0] == "row.insert":
                    held.append(op)
                else:
                    apply_op(server, op)
                    applied += 1
                if held and insert_allowed():
                    apply_op(server, held.popleft())
                    applied += 1
        except Exception as err:  # noqa: BLE001 - every write must succeed
            with lock:
                report.errors.append(f"writer{writer_id}: {err!r}")
        with lock:
            report.count("writer_ops", applied)

    def reader_cell(index: int) -> Cell:
        nonlocal reads_since_insert
        snapshot = server.snapshot()
        # A user who prefers something, while any does.
        holders = [user for user in users if snapshot.store.preferences_of(user)]
        user = random.Random(seed * 31 + index).choice(holders or users)
        cell = Cell(strategies[index % len(strategies)], user)
        check_digest = index % 3 == 0
        digest_before = snapshot.digest() if check_digest else None
        sql = read_sql(snapshot, user)

        def digest(strategy: str, guard=None) -> str:
            session = snapshot.session_for(user)
            return answer_digest(session.execute(sql, strategy=strategy, guard=guard))

        if sql is None:
            # Every bucket is empty: nothing to prefer, but still sampled
            # for the immutability check below.
            cell.outcome, cell.ok = "empty-bucket", True
        else:
            oracle = digest("reference")
            judge_read(
                cell,
                lambda: (digest(cell.label, QueryGuard(timeout=60.0)), oracle),
                _GUARD_ERRORS,
            )
            if cell.outcome == "silent-mismatch":
                # A re-run on the same snapshot pins the blame: if it matches
                # the oracle, that one execution was wrong; if it differs
                # too, the snapshot's query-visible state moved.
                rerun = digest(cell.label)
                cell.detail += f" (rerun-{'matches' if rerun == oracle else 'differs'})"
        if check_digest:
            # Runs whatever the verdict was: a snapshot must stay bit-identical
            # through its query runs and concurrent writer churn.
            with lock:
                report.count("snapshot_checks")
            if snapshot.digest() != digest_before:
                cell.outcome, cell.ok = "torn-snapshot", False
                cell.detail = "snapshot digest changed while the query ran"
        with lock:
            reads_since_insert += 1
        return cell

    writer_threads = [
        threading.Thread(target=writer_loop, args=(i,), name=f"chaos-writer-{i}")
        for i in range(writers)
    ]
    for thread in writer_threads:
        thread.start()
    executor = ServeExecutor(
        workers=max(1, readers),
        queue_limit=readers * queries_per_reader,
        name="chaos-readers",
    )
    try:
        futures = [
            executor.submit(reader_cell, index)
            for index in range(readers * queries_per_reader)
        ]
        for future in futures:
            try:
                report.cells.append(future.result(timeout=600))
            except Exception as err:  # noqa: BLE001 - a lost cell fails the run
                report.errors.append(f"reader task died: {err!r}")
    finally:
        stop_writers.set()
        for thread in writer_threads:
            thread.join()
        executor.shutdown()
    latency = executor.stats.snapshot()
    report.counts.update(
        {f"admission.{key}": latency[key] for key in ("admitted", "shed", "p50_ms", "p99_ms")}
    )
    report.counts.update({f"memo.{key}": value for key, value in server.db.blocks.stats().items()})
    return report
