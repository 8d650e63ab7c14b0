"""Concurrent queries on one shared snapshot charge only their own cost model.

A server hands one :class:`~repro.serve.server.ServerSnapshot` to every
query until the next commit, so many engine runs share one snapshot
``Database``.  Each run's per-query :class:`~repro.engine.iosim.CostModel`
carries its guard budget and fault plan; it must never be installed where
another run can charge it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cache.service import DEFAULT_SQL
from repro.core.preference import Preference
from repro.engine.expressions import cmp, eq
from repro.errors import ResourceExhausted
from repro.resilience import QueryGuard
from repro.serve.server import PreferenceServer
from repro.workloads.imdb import generate_imdb

USER = "u"
THREADS = 3
RUNS = 15


@pytest.fixture(scope="module")
def snapshot():
    server = PreferenceServer(generate_imdb(scale=0.0005, seed=7))
    server.add_preference(USER, Preference("g", "GENRES", eq("genre", "Drama"), 0.8, 0.9))
    server.add_preference(USER, Preference("y", "MOVIES", cmp("year", ">=", 1990), 0.6, 0.8))
    return server.snapshot()


def _text(snapshot) -> str:
    names = sorted(p.name for p in snapshot.store.preferences_of(USER))
    return DEFAULT_SQL.format(names=", ".join(names))


def _race(target, threads: int = THREADS) -> list:
    """Run *target(n)* on *threads* threads with a short switch interval."""
    errors: list = []

    def guarded(n: int) -> None:
        try:
            target(n)
        except Exception as err:  # recorded, asserted by the caller
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=guarded, args=(n,)) for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return errors


def test_concurrent_runs_each_get_the_solo_cost(snapshot):
    text = _text(snapshot)
    solo = snapshot.session_for(USER).execute(text).stats.cost
    assert solo["tuples_scanned"] > 0
    seen: list[dict] = []

    def reader(_n: int) -> None:
        session = snapshot.session_for(USER)
        for _ in range(RUNS):
            seen.append(session.execute(text).stats.cost)

    assert _race(reader) == []
    assert len(seen) == THREADS * RUNS
    assert [cost for cost in seen if cost != solo] == []


def test_one_querys_budget_is_never_charged_by_another(snapshot):
    text = _text(snapshot)
    probe = QueryGuard()
    snapshot.session_for(USER).execute(text, guard=probe)
    budget = probe.tuples
    assert budget > 0
    charged: list[int] = []

    def reader(n: int) -> None:
        session = snapshot.session_for(USER)
        for _ in range(RUNS):
            if n % 2:
                session.execute(text)  # unguarded neighbour
            else:
                # Exactly the solo run's budget: one foreign tuple trips it.
                guard = QueryGuard(max_tuples=budget)
                session.execute(text, guard=guard)
                charged.append(guard.tuples)

    errors = _race(reader, threads=4)
    assert [err for err in errors if isinstance(err, ResourceExhausted)] == []
    assert errors == []
    assert charged and set(charged) == {budget}
