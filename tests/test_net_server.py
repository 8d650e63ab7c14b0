"""NetServer: dispatch, tenancy, deadlines, admission, load, observability."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.preference import Preference
from repro.engine.database import Database
from repro.engine.expressions import eq
from repro.engine.types import DataType
from repro.errors import Overloaded, QueryTimeout, ReproError, ResilienceError
from repro.obs import InMemorySink
from repro.resilience import RetryBudget, RetryPolicy
from repro.serve.net.client import PreferenceClient
from repro.serve.net.protocol import triples_digest, wire_triples
from repro.serve.net.server import NetServer, namespaced, serve_in_thread
from repro.serve.server import PreferenceServer

SQL = """
    SELECT name, colour FROM ITEMS
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
    db.insert_many(
        "ITEMS",
        [(1, "apple", "red"), (2, "pear", "green"), (3, "plum", "purple"),
         (4, "grape", "green")],
    )
    return db


def green() -> Preference:
    return Preference("likes_green", "ITEMS", eq("colour", "green"), 0.9, 0.9)


def red() -> Preference:
    return Preference("likes_red", "ITEMS", eq("colour", "red"), 0.9, 0.9)


@pytest.fixture()
def served():
    server = PreferenceServer(small_db())
    net = NetServer(
        server, tenant_quota=None, test_ops=True, default_sql=SQL
    )
    handle = serve_in_thread(net)
    client = PreferenceClient("127.0.0.1", handle.port, deadline_s=15.0)
    try:
        yield server, net, handle, client
    finally:
        client.close()
        if not net.draining:
            handle.stop()


# -- dispatch ------------------------------------------------------------------


def test_query_matches_in_process_execution(served):
    server, _net, _handle, client = served
    server.add_preference(namespaced("public", "u1"), green())
    over_the_wire = client.query("u1", SQL.format(names="likes_green"))
    snapshot = server.snapshot()
    session = snapshot.session_for(namespaced("public", "u1"))
    local = session.execute(SQL.format(names="likes_green"))
    assert over_the_wire["digest"] == triples_digest(wire_triples(local))
    assert over_the_wire["rows"] == len(local.presented())


def test_query_without_sql_uses_snapshot_preferences(served):
    server, _net, _handle, client = served
    server.add_preference(namespaced("public", "u2"), green())
    result = client.query("u2")
    assert result["prefs"] == ["likes_green"]
    assert result["rows"] >= 1


def test_query_for_unknown_user_returns_empty(served):
    _server, _net, _handle, client = served
    result = client.query("nobody")
    assert result["rows"] == 0
    assert result["triples"] == []


def test_unknown_op_is_typed_error(served):
    _server, _net, _handle, client = served
    with pytest.raises(ReproError, match="unknown op"):
        client.call({"op": "frobnicate"})


def test_query_needs_a_user(served):
    _server, _net, _handle, client = served
    with pytest.raises(ReproError, match="needs a user"):
        client.call({"op": "query"})


# -- writes over the wire ------------------------------------------------------


def test_wire_writes_apply_to_the_served_state(served):
    server, _net, _handle, client = served
    assert client.add_preference("u3", green())["added"] is True
    assert client.query("u3")["prefs"] == ["likes_green"]
    assert client.remove_preference("u3", "likes_green")["removed"] is True
    assert client.remove_preference("u3", "likes_green")["removed"] is False
    client.add_preference("u3", green())
    client.add_preference("u3", red())
    assert client.clear_preferences("u3")["dropped"] == 2
    client.insert("ITEMS", [9, "kiwi", "green"])
    assert server.db.table("ITEMS").get((9,)) is not None


# -- tenancy -------------------------------------------------------------------


def test_tenants_namespace_users(served):
    _server, _net, handle, client = served
    other = PreferenceClient("127.0.0.1", handle.port, tenant="acme", deadline_s=15.0)
    try:
        client.add_preference("shared", green())
        other.add_preference("shared", red())
        assert client.query("shared")["prefs"] == ["likes_green"]
        assert other.query("shared")["prefs"] == ["likes_red"]
    finally:
        other.close()


def test_tenant_quota_sheds_typed_with_retry_after():
    server = PreferenceServer(small_db())
    net = NetServer(server, tenant_quota=0, test_ops=True)
    handle = serve_in_thread(net)
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=5.0, retry=RetryPolicy(attempts=1)
    )
    try:
        with pytest.raises(Overloaded) as excinfo:
            client.query("u1")
        assert excinfo.value.reason == "tenant-quota"
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0
    finally:
        client.close()
        handle.stop()


def test_control_ops_bypass_tenant_quota():
    server = PreferenceServer(small_db())
    net = NetServer(server, tenant_quota=0)
    handle = serve_in_thread(net)
    client = PreferenceClient(
        "127.0.0.1", handle.port, deadline_s=5.0, retry=RetryPolicy(attempts=1)
    )
    try:
        assert client.ping() == {"pong": True}
        assert client.health()["status"] == "ok"
        assert client.ready()["ready"] is True
    finally:
        client.close()
        handle.stop()


# -- deadlines -----------------------------------------------------------------


def test_expired_deadline_is_refused_before_admission(served):
    _server, _net, _handle, client = served
    with pytest.raises(QueryTimeout):
        client.call({"op": "query", "user": "u1", "deadline_ms": -5.0})


def test_deadline_propagates_to_the_worker(served):
    _server, net, _handle, client = served
    # A 1ms deadline cannot cover a 200ms in-flight sleep: the guard the
    # server builds from deadline_ms must cut it off with a typed timeout.
    with pytest.raises(QueryTimeout):
        client.call(
            {"op": "ping", "delay_ms": 200, "deadline_ms": 60.0}, deadline_s=None
        )


# -- health / readiness / stats ------------------------------------------------


def test_health_and_stats_reflect_served_traffic(served):
    server, _net, _handle, client = served
    server.add_preference(namespaced("public", "u1"), green())
    client.query("u1")
    stats = client.stats()
    assert stats["completed"] >= 1
    assert stats["draining"] is False
    health = client.health()
    assert health["status"] == "ok"
    assert health["draining"] is False


# -- concurrent load -----------------------------------------------------------


def test_multi_tenant_wire_load_passes_the_serving_gate():
    # Four closed-loop clients on distinct tenants share one retry budget
    # against a pool with less room (2 workers + 1 waiting) than clients.
    # Queries repeat a few users per tenant while add/remove churn
    # invalidates them.  The gate: no failure escapes untyped, at least
    # half the requests complete, and at most half are shed.
    clients, requests = 4, 40
    server = PreferenceServer(small_db())
    net = NetServer(server, workers=2, queue_limit=1, tenant_quota=2, default_sql=SQL)
    handle = serve_in_thread(net)
    budget = RetryBudget(capacity=20.0, refill=0.2)
    lock = threading.Lock()
    outcomes = {"completed": 0, "shed": 0, "typed": 0}
    untyped: list[str] = []

    def client_loop(worker: int) -> None:
        rng = random.Random(worker)
        active: dict[str, set[str]] = {f"u{i}": set() for i in range(3)}
        client = PreferenceClient(
            "127.0.0.1",
            handle.port,
            tenant=f"t{worker}",
            deadline_s=15.0,
            retry=RetryPolicy(attempts=4, base_delay=0.01, jitter=0.5, seed=worker),
            budget=budget,
        )
        try:
            for _ in range(requests):
                user = rng.choice(sorted(active))
                preference = rng.choice((green(), red()))
                try:
                    if rng.random() < 0.7:
                        client.query(user)
                    elif preference.name in active[user]:
                        client.remove_preference(user, preference.name)
                        active[user].discard(preference.name)
                    else:
                        client.add_preference(user, preference)
                        active[user].add(preference.name)
                    verdict = "completed"
                except Overloaded:
                    verdict = "shed"
                except ResilienceError:
                    verdict = "typed"
                except Exception as err:  # noqa: BLE001 - the gate counts it
                    with lock:
                        untyped.append(repr(err))
                    continue
                with lock:
                    outcomes[verdict] += 1
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(clients)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        handle.stop()
    total = clients * requests
    assert untyped == []
    assert sum(outcomes.values()) == total, outcomes  # no client died mid-run
    assert outcomes["completed"] >= 0.5 * total, outcomes
    assert outcomes["shed"] <= 0.5 * total, outcomes


# -- observability -------------------------------------------------------------


def test_connections_emit_serve_net_spans():
    sink = InMemorySink()
    server = PreferenceServer(small_db())
    net = NetServer(server, tenant_quota=None, trace_sink=sink)
    handle = serve_in_thread(net)
    client = PreferenceClient("127.0.0.1", handle.port, deadline_s=15.0)
    try:
        client.ping()
        client.ping()
    finally:
        client.close()
        handle.stop()
    spans = [span for _meta, span in sink.records if span.name == "serve.net"]
    assert spans, "expected a serve.net span per connection"
    assert spans[0].counters.get("frames_in", 0) >= 2
    assert spans[0].counters.get("frames_out", 0) >= 2
