"""Concurrent chaos: writers mutate state while readers must stay exact.

:func:`run_concurrent_chaos` (``python -m repro chaos --scenario
concurrent``) exercises the serving layer: N writer threads stream
preference mutations and row inserts through a live
:class:`~repro.serve.server.PreferenceServer` while M reader tasks,
admitted through a :class:`~repro.serve.executor.ServeExecutor`, each
capture a snapshot and run a preferential IMDB query on the production
path, block memo included.  The contract is snapshot isolation: every
query must **exactly** match the reference oracle evaluated *on its own
snapshot* — whatever preference set and row set the snapshot captured —
or fail with a typed query-guard error.  A sampled
digest-before/digest-after check proves no writer mutated a captured
snapshot in place.

Crash recovery is not checked here: ``python -m repro crash-torture``
(:mod:`repro.resilience.crashtest`) cuts the WAL at every write, fsync and
rename of a seeded workload and digest-verifies every recovery.

Verdicts are deterministic even though thread interleavings are not: each
cell is judged against the snapshot it actually captured, so *every*
interleaving must pass.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field

from ..core.preference import Preference
from ..core.scoring import recency_score
from ..engine.expressions import cmp, eq
from ..errors import QueryCancelled, QueryTimeout, ReproError, ResourceExhausted
from .guard import QueryGuard

#: The only typed errors a reader cell may fail with: its query guard tripped.
_GUARD_ERRORS = (QueryTimeout, QueryCancelled, ResourceExhausted)

#: The query template readers run; the PREFERRING list is whatever the
#: captured snapshot holds for the chosen user.
READER_SQL = """
    SELECT title, director, year FROM MOVIES
      NATURAL JOIN GENRES
      NATURAL JOIN DIRECTORS
    WHERE year >= 1980
    PREFERRING {names}
    TOP 10 BY score
"""


def preference_pool() -> list[Preference]:
    """The WAL-loggable preferences writers shuffle in and out of buckets."""
    pool: list[Preference] = []
    for genre in ("Comedy", "Drama", "Action", "Thriller"):
        pool.append(
            Preference(f"g_{genre.lower()}", "GENRES", eq("genre", genre), 0.8, 0.9)
        )
    for d_id in (1, 2, 3, 5, 8):
        pool.append(Preference(f"d_{d_id}", "DIRECTORS", eq("d_id", d_id), 0.9, 0.8))
    for year in (1990, 2000, 2005):
        pool.append(
            Preference(
                f"y_{year}",
                "MOVIES",
                cmp("year", ">=", year),
                recency_score("year", 2011),
                0.7,
            )
        )
    return pool


def _base_preference() -> Preference:
    """The per-user preference writers never remove, so PREFERRING is never empty."""
    return Preference(
        "base", "MOVIES", cmp("year", ">=", 1900), recency_score("year", 2011), 1.0
    )


def _triples(result) -> list[tuple]:
    """A result's presented rows as a canonical, order-independent set."""
    rounded = [
        (row, None if score is None else round(score, 9), round(conf, 9))
        for row, score, conf in result.presented().triples()
    ]
    return sorted(rounded, key=repr)


@dataclass
class ConcurrentCell:
    """Outcome of one reader query: who ran what against which snapshot."""

    reader: int
    index: int
    user: str
    strategy: str
    outcome: str
    ok: bool
    detail: str = ""


@dataclass
class ConcurrentChaosReport:
    """Everything a concurrent chaos run observed, plus the verdict."""

    seed: int
    scale: float
    writers: int
    readers: int
    cells: list[ConcurrentCell] = field(default_factory=list)
    writer_ops: int = 0
    snapshot_checks: int = 0
    latency: dict = field(default_factory=dict)
    #: The live server's ``db.blocks.stats()`` after the run.
    memo: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[ConcurrentCell]:
        return [cell for cell in self.cells if not cell.ok]

    def describe(self) -> str:
        lines = [
            f"concurrent chaos: seed={self.seed} scale={self.scale} "
            f"writers={self.writers} readers={self.readers}"
        ]
        by_outcome: dict[str, int] = {}
        for cell in self.cells:
            by_outcome[cell.outcome] = by_outcome.get(cell.outcome, 0) + 1
        for outcome in sorted(by_outcome):
            lines.append(f"  {outcome:<24} {by_outcome[outcome]}")
        lines.append(
            f"  writer mutations applied: {self.writer_ops}; "
            f"snapshot immutability checks: {self.snapshot_checks}"
        )
        if self.latency:
            lines.append(
                "  admission: admitted={admitted} shed={shed}  "
                "p50={p50_ms}ms p95={p95_ms}ms p99={p99_ms}ms".format(**self.latency)
            )
        if self.memo:
            lines.append(
                "  block memo: hits={hits} misses={misses} evictions={evictions} "
                "rows={rows}".format(**self.memo)
            )
        for cell in self.failures:
            lines.append(
                f"  FAIL reader{cell.reader}#{cell.index} user={cell.user} "
                f"{cell.strategy}: {cell.outcome} — {cell.detail}"
            )
        for error in self.errors:
            lines.append(f"  ERROR {error}")
        good = sum(1 for c in self.cells if c.ok)
        lines.append(
            f"concurrent chaos: {good}/{len(self.cells)} cells conformant — "
            + ("OK" if self.ok else "FAILED")
        )
        return "\n".join(lines)


def run_concurrent_chaos(
    seed: int = 42,
    scale: float = 0.001,
    writers: int = 4,
    readers: int = 4,
    queries_per_reader: int = 8,
    strategies=None,
    sanitize: bool | None = None,
) -> ConcurrentChaosReport:
    """N writers mutate the live server while M readers must stay exact.

    Writers stream preference add/remove/clear (plus movie inserts from
    writer 0) through the single server write path; each reader task
    captures a fresh :class:`~repro.serve.server.ServerSnapshot`, computes
    the reference oracle *on that snapshot*, then re-runs the query with
    another strategy, which must match the oracle or fail with a typed
    query-guard error.  Reader tasks are admitted
    through a :class:`~repro.serve.executor.ServeExecutor`, so the run also
    exercises admission accounting and cross-thread guard/tracer capture.

    *sanitize* (default: the ``REPRO_SANITIZE`` environment switch) runs
    the whole scenario under a fresh concurrency sanitizer — this is the
    run where lock-order and COW findings would actually appear, since all
    threads hammer one server; any SANxxx finding lands in
    ``report.errors`` and fails the run.
    """
    from ..analysis_static.sanitizer import env_sanitize_enabled, use_sanitizer
    from ..pexec.engine import STRATEGIES

    if sanitize is None:
        sanitize = env_sanitize_enabled()
    if sanitize:
        with use_sanitizer() as sanitizer:
            report = run_concurrent_chaos(
                seed=seed,
                scale=scale,
                writers=writers,
                readers=readers,
                queries_per_reader=queries_per_reader,
                strategies=strategies,
                sanitize=False,
            )
        for diagnostic in sanitizer.findings:
            report.errors.append(f"sanitizer: {diagnostic}")
        return report
    from ..serve.executor import ServeExecutor
    from ..serve.server import PreferenceServer
    from ..workloads.imdb import generate_imdb

    if strategies is None:
        strategies = [s for s in STRATEGIES if s != "reference"]
    report = ConcurrentChaosReport(
        seed=seed, scale=scale, writers=writers, readers=readers
    )
    server = PreferenceServer(generate_imdb(scale=scale, seed=seed))
    users = [f"u{i}" for i in range(max(1, writers))]
    for user in users:
        server.add_preference(user, _base_preference())
    pool = preference_pool()

    stop_writers = threading.Event()
    ops_lock = threading.Lock()

    def writer_loop(writer_id: int) -> None:
        rng = random.Random(seed * 1009 + writer_id)
        applied = 0
        next_m_id = 10_000_000 + writer_id * 100_000
        while not stop_writers.is_set():
            user = rng.choice(users)
            roll = rng.random()
            try:
                if roll < 0.55:
                    server.add_preference(user, rng.choice(pool))
                elif roll < 0.80:
                    server.remove_preference(user, rng.choice(pool).name)
                elif roll < 0.90:
                    server.clear_preferences(user)
                    server.add_preference(user, _base_preference())
                elif writer_id == 0:
                    next_m_id += 1
                    year = 1980 + rng.randrange(30)
                    server.insert(
                        "MOVIES",
                        (next_m_id, f"chaos movie {next_m_id}", year, 100, 1),
                    )
                    server.insert("GENRES", (next_m_id, rng.choice(("Comedy", "Drama"))))
                applied += 1
            except ReproError as err:
                # Duplicate adds / races on remove are expected churn; anything
                # else is a real serving-layer bug and fails the run.
                if "duplicate" not in str(err) and "already" not in str(err):
                    report.errors.append(f"writer{writer_id}: {err!r}")
                    return
            except Exception as err:  # noqa: BLE001 - untyped writer crash fails the run
                report.errors.append(f"writer{writer_id} crashed untyped: {err!r}")
                return
        with ops_lock:
            report.writer_ops += applied

    def reader_cell(reader_id: int, index: int) -> ConcurrentCell:
        rng = random.Random(seed * 31 + reader_id * 1000 + index)
        user = rng.choice(users)
        strategy = strategies[(reader_id + index) % len(strategies)]
        cell = ConcurrentCell(reader_id, index, user, strategy, "", ok=False)
        snapshot = server.snapshot()
        check_digest = index % 3 == 0
        digest_before = snapshot.digest() if check_digest else None
        names = sorted(p.name for p in snapshot.store.preferences_of(user))
        sql = READER_SQL.format(names=", ".join(names))

        def judge() -> None:
            oracle = _triples(
                snapshot.session_for(user).execute(sql, strategy="reference")
            )
            session = snapshot.session_for(user)
            guard = QueryGuard(timeout=60.0)
            try:
                result = session.execute(sql, strategy=strategy, guard=guard)
            except _GUARD_ERRORS as err:
                cell.outcome, cell.ok = f"typed-error:{type(err).__name__}", True
                return
            except ReproError as err:
                cell.outcome = f"unexplained-error:{type(err).__name__}"
                cell.detail = f"no query guard explains {err!r}"
                return
            except Exception as err:  # noqa: BLE001 - untyped escape is the bug we hunt
                cell.outcome = f"untyped-error:{type(err).__name__}"
                cell.detail = repr(err)
                return
            answer = _triples(result)
            if answer != oracle:
                cell.outcome = "silent-mismatch"
                dump = os.environ.get("REPRO_CHAOS_DUMP")
                if dump:  # debugging aid: preserve the failing snapshot
                    from ..engine.persist import save_database
                    from ..serve.server import _save_preferences

                    target = os.path.join(dump, f"cell-{reader_id}-{index}")
                    save_database(snapshot.db, os.path.join(target, "db"))
                    _save_preferences(os.path.join(target, "prefs.json"), snapshot.store)
                # A re-run on the same snapshot pins the blame: if it matches
                # the oracle, that one execution was wrong; if it differs
                # too, the snapshot's query-visible state moved.
                rerun = _triples(snapshot.session_for(user).execute(sql, strategy=strategy))
                cell.detail = (
                    f"answer differs from the oracle computed on this snapshot "
                    f"(prefs={names}, |oracle|={len(oracle)}, |answer|={len(answer)}, "
                    f"rerun-{'matches' if rerun == oracle else 'differs'})"
                )
                return
            cell.outcome, cell.ok = "match", True

        if names:
            judge()
        else:
            # A reader can land between clear() and the base re-add; that
            # snapshot simply has nothing to prefer, but is still sampled
            # for the immutability check below.
            cell.outcome, cell.ok = "empty-bucket", True
        if check_digest:
            # Runs whatever the verdict was: a snapshot must stay bit-identical
            # through its query runs and concurrent writer churn.
            with ops_lock:
                report.snapshot_checks += 1
            if snapshot.digest() != digest_before:
                cell.outcome = "torn-snapshot"
                cell.detail = "snapshot digest changed while the query ran"
                cell.ok = False
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
            executor.submit(reader_cell, reader, index)
            for reader in range(readers)
            for index in range(queries_per_reader)
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
    report.latency = executor.stats.snapshot()
    report.memo = server.db.blocks.stats()
    return report
