"""PreferenceClient: retries, budgets, hints, deadlines, digest verification."""

from __future__ import annotations

import threading

import pytest

from repro.core.preference import Preference
from repro.engine.database import Database
from repro.engine.expressions import eq
from repro.engine.types import DataType
from repro.errors import NetworkFault, Overloaded, QueryTimeout
from repro.resilience import RetryBudget, RetryPolicy
from repro.resilience.faults import FaultPlan
from repro.serve.net.client import PreferenceClient
from repro.serve.net.server import NetServer, serve_in_thread
from repro.serve.server import PreferenceServer

SQL = """
    SELECT name FROM ITEMS
    PREFERRING {names}
    TOP 3 BY score
"""


def small_db() -> Database:
    db = Database()
    db.create_table(
        "ITEMS",
        [("i_id", DataType.INT), ("name", DataType.TEXT), ("colour", DataType.TEXT)],
        primary_key=["i_id"],
    )
    db.insert_many("ITEMS", [(1, "apple", "red"), (2, "pear", "green")])
    return db


class OneShot:
    """Fault factory: the armed plan governs exactly one connection."""

    def __init__(self, plan=None):
        self.plan = plan
        self.lock = threading.Lock()

    def arm(self, plan):
        with self.lock:
            self.plan = plan

    def __call__(self, index):
        with self.lock:
            plan, self.plan = self.plan, None
            return plan


def serve(faults=None, **kw):
    server = PreferenceServer(small_db())
    kw.setdefault("tenant_quota", None)
    net = NetServer(server, fault_factory=faults, default_sql=SQL, **kw)
    return server, serve_in_thread(net)


# -- retries over transport faults ---------------------------------------------


def test_dropped_response_is_retried_transparently():
    faults = OneShot(FaultPlan.transient("net.write", times=1, seed=0))
    server, handle = serve(faults)
    server.add_preference("public::u1", Preference("p", "ITEMS", eq("colour", "red"), 0.9, 0.9))
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=10.0,
        retry=RetryPolicy(attempts=3, base_delay=0.001),
    )
    try:
        result = client.query("u1")
        assert result["rows"] >= 1
        assert client.network_faults == 1
        assert client.retries == 1
    finally:
        client.close()
        handle.stop()


def test_retries_exhausted_raises_typed():
    class AlwaysDrop:
        def __call__(self, index):
            return FaultPlan.transient("net.accept", times=1, seed=index)

    _server, handle = serve(AlwaysDrop())
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=10.0,
        retry=RetryPolicy(attempts=3, base_delay=0.001),
    )
    try:
        with pytest.raises(NetworkFault):
            client.ping()
        assert client.network_faults == 3
    finally:
        client.close()
        handle.stop()


# -- server hints and retry budgets --------------------------------------------


def test_retry_after_hint_replaces_blind_backoff():
    _server, handle = serve(tenant_quota=0)
    slept: list[float] = []
    policy = RetryPolicy(
        attempts=2, base_delay=99.0, jitter=0.0, sleep=slept.append
    )
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=None, retry=policy
    )
    try:
        with pytest.raises(Overloaded) as excinfo:
            client.query("u1")
        hint = excinfo.value.retry_after
        assert hint is not None
        # The pause taken was the server's hint, not base_delay=99s.
        assert slept == [pytest.approx(hint, rel=0.5)]
        assert slept[0] < 10.0
    finally:
        client.close()
        handle.stop()


def test_retry_budget_stops_the_storm():
    _server, handle = serve(tenant_quota=0)
    budget = RetryBudget(capacity=1.0, refill=0.0)
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=None,
        retry=RetryPolicy(attempts=10, base_delay=0.0, sleep=lambda _s: None),
        budget=budget,
    )
    try:
        with pytest.raises(Overloaded):
            client.query("u1")
        # One token spent, then the budget refused further retries.
        assert client.retries == 1
        assert budget.spent == 1
        assert budget.denied >= 1
    finally:
        client.close()
        handle.stop()


def test_successes_refill_the_budget():
    _server, handle = serve()
    budget = RetryBudget(capacity=2.0, refill=0.5)
    budget.try_spend()
    budget.try_spend()
    assert budget.tokens == 0.0
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=10.0, budget=budget
    )
    try:
        client.ping()
        client.ping()
        assert budget.tokens == pytest.approx(1.0)
    finally:
        client.close()
        handle.stop()


# -- deadlines -----------------------------------------------------------------


def test_spent_deadline_raises_before_any_attempt():
    client = PreferenceClient("127.0.0.1", 1, deadline_s=0.0)
    with pytest.raises(QueryTimeout):
        client.ping()


def test_deadline_bounds_total_retrying():
    import time

    class AlwaysDrop:
        def __call__(self, index):
            return FaultPlan.transient("net.accept", times=1, seed=index)

    _server, handle = serve(AlwaysDrop())
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=0.3,
        retry=RetryPolicy(attempts=1000, base_delay=0.05),
    )
    try:
        started = time.monotonic()
        with pytest.raises((QueryTimeout, NetworkFault)):
            client.ping()
        assert time.monotonic() - started < 5.0
    finally:
        client.close()
        handle.stop()


# -- end-to-end digest verification --------------------------------------------


def test_digest_mismatch_is_refused(monkeypatch):
    server, handle = serve()
    server.add_preference(
        "public::u1", Preference("p", "ITEMS", eq("colour", "red"), 0.9, 0.9)
    )
    # Corrupt the server-side digest computation: the client's recomputation
    # over the received triples must now disagree and refuse the result.
    # (The query path reads protocol.triples_digest late, per call; the
    # client holds its own bound reference and stays honest.)
    import repro.serve.net.protocol as protocol

    monkeypatch.setattr(
        protocol, "triples_digest", lambda triples: "0" * 64
    )
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=5.0, retry=RetryPolicy(attempts=1)
    )
    try:
        with pytest.raises(NetworkFault, match="digest mismatch"):
            client.query("u1")
    finally:
        client.close()
        handle.stop()


# -- jitter and policy determinism ---------------------------------------------


def test_jittered_backoff_is_seeded_and_bounded():
    a = RetryPolicy(attempts=5, base_delay=0.1, jitter=0.5, seed=9)
    b = RetryPolicy(attempts=5, base_delay=0.1, jitter=0.5, seed=9)
    seq_a = [a.backoff(k) for k in range(1, 5)]
    seq_b = [b.backoff(k) for k in range(1, 5)]
    assert seq_a == seq_b  # same seed, same schedule
    for k, delay in enumerate(seq_a, start=1):
        nominal = min(0.1 * 2.0 ** (k - 1), a.max_delay)
        assert 0.5 * nominal <= delay <= 1.5 * nominal


def test_exponential_schedule_with_cap():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
    assert [policy.backoff(k) for k in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.5]


def test_jitter_zero_is_exact_and_validation_rejects_bad_values():
    policy = RetryPolicy(base_delay=0.2, jitter=0.0)
    assert policy.backoff(1) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryBudget(capacity=0.0)
