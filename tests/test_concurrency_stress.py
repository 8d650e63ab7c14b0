"""Concurrency stress: shared stores, concurrent sessions, ambient hygiene.

The invariants under test: no lost updates (every acknowledged mutation is
visible at the end), no torn snapshots (a reader never observes a half-
applied batch), and no cross-query stat bleed (concurrent executions return
exactly the single-threaded oracle's answer).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Preference, eq
from repro.errors import PreferenceError
from repro.obs import NullTracer, Tracer, current_tracer, use_tracer
from repro.optimizer import optimize
from repro.plan.analysis import prepare_plan
from repro.query.session import Session
from repro.query.store import PreferenceStore
from repro.resilience import QueryGuard, current_guard, use_guard

from repro.workloads.imdb import generate_imdb

from .conformance import canonical_multiset
from .conftest import build_movie_db

THREADS = 4
OPS_PER_THREAD = 60


def pref(name: str) -> Preference:
    return Preference(name, "GENRES", eq("genre", "Comedy"), 0.8, 0.9)


# -- interleaved mutations on one shared store ---------------------------------


def test_store_survives_interleaved_mutations():
    """N writers hammer one store; every acknowledged add survives."""
    store = PreferenceStore(build_movie_db())
    barrier = threading.Barrier(THREADS, timeout=10)
    failures: list[BaseException] = []

    def writer(worker: int) -> None:
        user = f"user{worker}"
        try:
            barrier.wait()
            for i in range(OPS_PER_THREAD):
                store.add(user, pref(f"w{worker}_p{i}"))
                if i % 3 == 0:
                    assert store.remove(user, f"w{worker}_p{i}")
                store.preferences_of(user)  # interleave reads with the writes
                store.users()
        except BaseException as err:  # noqa: BLE001 - surfaced to the assert below
            failures.append(err)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not failures, failures
    expected = OPS_PER_THREAD - len(range(0, OPS_PER_THREAD, 3))
    for worker in range(THREADS):
        names = {p.name for p in store.preferences_of(f"user{worker}")}
        assert len(names) == expected  # no lost updates, no ghosts
    assert store.version == THREADS * (OPS_PER_THREAD + len(range(0, OPS_PER_THREAD, 3)))


def test_snapshots_are_never_torn():
    """A writer flips one user between {} and an atomic 3-preference batch;
    snapshot readers must never observe a partial batch."""
    store = PreferenceStore(build_movie_db())
    batch_names = {"a", "b", "c"}
    stop = threading.Event()
    torn: list[set] = []

    def writer() -> None:
        while not stop.is_set():
            store.add_all("flip", [pref(n) for n in sorted(batch_names)])
            store.clear("flip")

    def reader() -> None:
        while not stop.is_set():
            observed = {p.name for p in store.snapshot().preferences_of("flip")}
            if observed not in (set(), batch_names):
                torn.append(observed)
                return

    writer_thread = threading.Thread(target=writer)
    readers = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread.start()
    for r in readers:
        r.start()
    for r in readers:
        r.join(timeout=1.5)  # ~1.5s of churn per reader
    stop.set()
    writer_thread.join(timeout=10)
    assert torn == [], f"snapshot observed a half-applied batch: {torn}"


# -- concurrent query execution ------------------------------------------------


def test_concurrent_sessions_match_single_threaded_oracle():
    """Concurrent Session.execute calls return the solo answer bit-for-bit:
    per-query stats and scores never bleed across threads."""
    db = build_movie_db()
    store = PreferenceStore(db)
    store.add("alice", pref("comedy"))
    store.add("bob", Preference("eastwood", "DIRECTORS", eq("d_id", 1), 0.9, 0.8))
    sql = {
        "alice": "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING comedy",
        "bob": "SELECT title FROM MOVIES NATURAL JOIN DIRECTORS PREFERRING eastwood",
    }

    def answer(user: str):
        result = store.session_for(user).execute(sql[user])
        presented = result.presented()
        cells = [
            (row[0], -1.0 if pair.score is None else pair.score, pair.conf)
            for row, pair in zip(presented.rows, presented.pairs)
        ]
        return result.stats.rows, sorted(cells)

    oracle = {user: answer(user) for user in sql}
    failures: list[str] = []
    barrier = threading.Barrier(THREADS, timeout=10)

    def worker(worker_id: int) -> None:
        user = "alice" if worker_id % 2 == 0 else "bob"
        barrier.wait()
        for _ in range(10):
            if answer(user) != oracle[user]:
                failures.append(f"{user} diverged from the solo answer")
                return

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert failures == []


def test_snapshot_readers_share_the_block_memo_with_a_writer():
    """4 snapshot readers and 1 writer at a tiny switch interval: every
    gbu / ftp answer equals ``reference`` on the same snapshot, whether its
    blocks came from the shared memo (exact or subsumed by a wider cut-off
    of the same range family) or a cold run, and the memo never holds more
    rows than its budget.  Every executed plan, memoized or not, equals the
    memo-less prepare (and, for gbu, optimize) on that snapshot."""
    db = generate_imdb(scale=0.0005, seed=5)
    sql = (
        "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES WHERE year >= {} "
        "PREFERRING (genre = 'Drama') SCORE 0.9 ON GENRES, "
        "(year >= 2000) SCORE 0.5 ON MOVIES"
    )
    # Stored on the second run, then two narrower cut-offs and a repeat.
    cutoffs = (1990, 1990, 2000, 1995, 1990)
    movies = [row[0] for row in db.table("MOVIES").rows[:40]]
    barrier = threading.Barrier(THREADS + 1, timeout=10)
    readers_done = threading.Event()
    failures: list = []
    hits: list[int] = []
    plan_hits: list[int] = []

    def within_budget(memo) -> bool:
        # Rows first: the budget only grows while the writer only inserts.
        rows = memo.rows
        return rows <= memo.budget

    def reader(worker: int) -> None:
        try:
            barrier.wait()
            for i in range(8):
                snap = db.snapshot()
                session = Session(snap)
                oracles = {
                    cutoff: canonical_multiset(
                        session.execute(sql.format(cutoff), strategy="reference")
                    )
                    for cutoff in set(cutoffs)
                }
                strategy = "gbu" if (worker + i) % 2 == 0 else "ftp"
                memo, before = snap.blocks, snap.blocks.hits
                plans_before = memo.plan_hits
                for cutoff in cutoffs:
                    answer = session.execute(sql.format(cutoff), strategy=strategy)
                    if canonical_multiset(answer) != oracles[cutoff]:
                        failures.append(
                            f"{strategy} diverged at version {snap.version}, year >= {cutoff}"
                        )
                    cold = prepare_plan(answer.plan, snap.catalog)
                    if strategy == "gbu":
                        cold = optimize(cold, snap.catalog)
                    if answer.executed_plan != cold:
                        failures.append(f"{strategy} ran a stale plan at version {snap.version}")
                hits.append(memo.hits - before)
                plan_hits.append(memo.plan_hits - plans_before)
                if not within_budget(memo):
                    failures.append("memo over budget")
        except Exception as err:  # surfaced to the assert below
            failures.append(err)

    def writer() -> None:
        try:
            barrier.wait()
            i = 0
            while not readers_done.is_set():
                db.insert("GENRES", (movies[i % len(movies)], f"Genre{i}"))
                if i % 10 == 0:
                    db.analyze()
                i += 1
                time.sleep(0.002)
        except Exception as err:  # surfaced to the assert below
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader, args=(w,)) for w in range(THREADS)]
        writing = threading.Thread(target=writer)
        for t in readers + [writing]:
            t.start()
        for t in readers:
            t.join(timeout=120)
        readers_done.set()
        writing.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + [writing])
    assert failures == []
    assert any(hits)  # the readers did replay shared blocks
    assert any(plan_hits)  # ... and memoized plans
    assert within_budget(db.blocks)


# -- hypothesis: add_all is transactional --------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    existing=st.lists(
        st.sampled_from("abcdef"), unique=True, max_size=4
    ),
    batch=st.lists(st.sampled_from("abcdefgh"), max_size=6),
)
def test_add_all_is_all_or_nothing(existing, batch):
    store = PreferenceStore(build_movie_db())
    for name in existing:
        store.add("u", pref(name))
    before = {p.name for p in store.preferences_of("u")}
    version_before = store.version

    collides = len(set(batch)) != len(batch) or bool(set(batch) & set(existing))
    if collides:
        with pytest.raises(PreferenceError):
            store.add_all("u", [pref(n) for n in batch])
        assert {p.name for p in store.preferences_of("u")} == before  # rolled back
        assert store.version == version_before
    else:
        store.add_all("u", [pref(n) for n in batch])
        assert {p.name for p in store.preferences_of("u")} == before | set(batch)


# -- ambient-context hygiene across threads ------------------------------------


def test_ambient_context_does_not_cross_threads_without_capture():
    guard = QueryGuard(timeout=60.0)
    tracer = Tracer()
    seen = {}

    def naive_worker() -> None:
        seen["guard"] = current_guard()
        seen["tracer"] = current_tracer()

    with use_guard(guard), use_tracer(tracer):
        t = threading.Thread(target=naive_worker)
        t.start()
        t.join(timeout=5)
    assert seen["guard"] is not guard  # ContextVars stay on their thread...
    assert isinstance(seen["tracer"], NullTracer)


def test_capture_restore_carries_context_into_worker():
    guard = QueryGuard(timeout=60.0)
    tracer = Tracer()
    seen = {}

    with use_guard(guard), use_tracer(tracer):
        handoff = (current_guard(), current_tracer())

    def worker() -> None:
        with use_guard(handoff[0]), use_tracer(handoff[1]):
            seen["guard"] = current_guard()
            seen["tracer"] = current_tracer()
        seen["after"] = current_guard()

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=5)
    assert seen["guard"] is guard  # ...unless explicitly captured and restored
    assert seen["tracer"] is tracer
    assert seen["after"] is not guard  # and the worker is clean afterwards


def test_ambient_reset_survives_exceptions():
    guard = QueryGuard(timeout=60.0)
    baseline = current_guard()
    with pytest.raises(RuntimeError):
        with use_guard(guard):
            assert current_guard() is guard
            raise RuntimeError("query blew up")
    assert current_guard() is baseline  # no stale guard leaks into the next query

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with use_tracer(tracer):
            raise RuntimeError("traced query blew up")
    assert current_tracer() is not tracer
