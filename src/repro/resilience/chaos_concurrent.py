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
writers hold each one back until one read per strategy has run wholly at
the current version (its snapshot taken after the last insert);
preference writes run unpaced.  Several reads then share each data
version, as they do on a served workload whose profiles change far more
often than its data.  The reads that share FtP's preference-free block
take turns running their strategy, so the block memo hits however the
threads interleave (see :data:`_SHARED_BLOCK`).

Crash recovery is checked by :mod:`repro.resilience.crashtest`, not here.

Verdicts are deterministic even though thread interleavings are not: each
cell is judged against the snapshot it actually captured, so *every*
interleaving must pass.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from contextlib import nullcontext

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
#: Reads rotate through them first and take turns running them.  No insert
#: lands during the first rotation (the third read starts once one read
#: has finished), so its three probes of that block run in turn at one
#: data version: the second stores the block and the third hits.
_SHARED_BLOCK = ("ftp", "plugin-rma", "plugin-shared")


def run_concurrent_chaos(
    seed: int = 42,
    scale: float = 0.001,
    writers: int = 4,
    readers: int = 4,
    queries_per_reader: int = 8,
) -> Report:
    """N writers mutate the live server while M readers must stay exact
    (see the module docstring); readers run *queries_per_reader* reads each.
    """
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
    turn = threading.Lock()  # held by a _SHARED_BLOCK strategy run
    inserts = 0
    reads_since_insert = 0

    def paced_insert(op) -> bool:
        """Apply row insert *op* once a strategy rotation of reads ran at
        the current version; False while it must wait."""
        nonlocal inserts, reads_since_insert
        with lock:
            if reads_since_insert < len(strategies):
                return False
            apply_op(server, op)
            inserts += 1
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
                if held and paced_insert(held[0]):
                    held.popleft()
                    applied += 1
        except Exception as err:  # noqa: BLE001 - every write must succeed
            with lock:
                report.errors.append(f"writer{writer_id}: {err!r}")
        with lock:
            report.count("writer_ops", applied)

    def reader_cell(index: int) -> Cell:
        nonlocal reads_since_insert
        with lock:
            snapshot = server.snapshot()
            epoch = inserts
        # A user who prefers something, while any does.
        holders = [user for user in users if snapshot.store.preferences_of(user)]
        user = random.Random(seed * 31 + index).choice(holders or users)
        cell = Cell(strategies[index % len(strategies)], user)
        check_digest = index % 3 == 0
        digest_before = snapshot.digest() if check_digest else None
        sql = read_sql(snapshot, user)

        def digest(strategy: str, guard=None) -> str:
            session = snapshot.session_for(user)
            with turn if strategy in _SHARED_BLOCK else nullcontext():
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
            if epoch == inserts:  # no insert landed since its snapshot
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
