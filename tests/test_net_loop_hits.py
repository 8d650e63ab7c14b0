"""Cache hits answered on the event loop: what they skip and what still holds.

A repeated query whose reply is cached for the server's current snapshot is
answered by ``NetServer`` on its event loop, without a worker, the server
mutex or a snapshot build.  These tests pin the parts of the contract that
path must keep: it answers while a writer sits in the WAL fsync, it still
sheds on the tenant quota, refuses typed on a poisoned or draining server,
and never hides an acknowledged or direct write.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.cache.service import CachedQueryService
from repro.core.preference import Preference
from repro.engine.database import Database
from repro.engine.expressions import eq
from repro.engine.types import DataType
from repro.errors import DurabilityError, Overloaded, WALPoisoned
from repro.resilience import RetryPolicy
from repro.resilience.vfs import RealVFS, use_vfs
from repro.serve.net.client import PreferenceClient
from repro.serve.net.server import NetServer, namespaced, serve_in_thread
from repro.serve.server import PreferenceServer

SQL = """
    SELECT name, colour FROM ITEMS
    PREFERRING {names}
    TOP 3 BY score
"""

U1 = namespaced("public", "u1")


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
    return Preference("likes_red", "ITEMS", eq("colour", "red"), 0.8, 0.7)


class GatedVFS(RealVFS):
    """fsync waits on ``gate`` while one is set, or fails while ``fail``."""

    def __init__(self) -> None:
        self.gate: threading.Event | None = None
        self.entered = threading.Event()
        self.fail = False

    def fsync(self, handle) -> None:
        if self.fail:
            raise OSError(5, "injected fsync failure")
        gate = self.gate
        if gate is not None:
            self.entered.set()
            gate.wait(30.0)
        super().fsync(handle)


class Rig:
    """One served server plus the clients a test opens against it."""

    def __init__(self, server: PreferenceServer, **net_kwargs) -> None:
        self.server = server
        net_kwargs.setdefault("tenant_quota", None)
        self.net = NetServer(server, default_sql=SQL, **net_kwargs)
        self.handle = serve_in_thread(self.net)
        self._clients: list[PreferenceClient] = []

    def client(self, **kwargs) -> PreferenceClient:
        client = PreferenceClient(
            "127.0.0.1", self.handle.port, deadline_s=15.0,
            retry=RetryPolicy(attempts=1), **kwargs,
        )
        self._clients.append(client)
        return client

    def oracle(self, user: str) -> dict:
        """The cache-off reply at the server's state now."""
        return CachedQueryService(self.server, None, default_sql=SQL).query(user)

    def close(self) -> None:
        for client in self._clients:
            client.close()
        if not self.net.draining:
            self.handle.stop()
        self.handle.thread.join(10.0)


@pytest.fixture()
def rig():
    server = PreferenceServer(small_db())
    server.add_preference(U1, green())
    made = Rig(server)
    try:
        yield made
    finally:
        made.close()


@pytest.fixture()
def durable(tmp_path):
    vfs = GatedVFS()
    with use_vfs(vfs):
        server, _replay = PreferenceServer.open(
            str(tmp_path / "served"), initial=small_db(), sync=True
        )
        # The first append opens the log on this VFS; later ones reuse it
        # from any thread.
        server.add_preference(U1, green())
    made = Rig(server)
    try:
        yield made, vfs
    finally:
        vfs.fail = False
        if vfs.gate is not None:
            vfs.gate.set()
        made.close()


def test_a_repeated_query_is_answered_on_the_loop(rig):
    client = rig.client()
    first = client.query("u1")
    before = client.stats()
    assert client.query("u1") == first
    after = client.stats()
    assert after["loop_hits"] == before["loop_hits"] + 1
    # The loop hit took no worker, and the cache counted it as a hit.
    assert after["completed"] == before["completed"]
    assert after["cache"]["hits"] == before["cache"]["hits"] + 1
    assert after["cache"]["misses"] == before["cache"]["misses"]


def test_cached_query_answers_while_a_writer_is_stalled_in_fsync(durable):
    rig, vfs = durable
    reader, writer = rig.client(), rig.client()
    served = reader.query("u1")
    assert reader.query("u1") == served  # now cached for the current snapshot
    vfs.gate = threading.Event()
    outcome: list = []
    thread = threading.Thread(
        target=lambda: outcome.append(writer.add_preference("u2", red()))
    )
    thread.start()
    try:
        assert vfs.entered.wait(10.0), "the write never reached the fsync"
        hits = reader.stats()["loop_hits"]
        started = time.monotonic()
        assert reader.query("u1", deadline_s=5.0) == served
        assert time.monotonic() - started < 5.0
        assert reader.stats()["loop_hits"] == hits + 1
        assert thread.is_alive()  # the writer is still inside its fsync
    finally:
        vfs.gate.set()
        thread.join(10.0)
    vfs.gate = None
    assert outcome and outcome[0]["added"] is True
    assert reader.query("u2")["prefs"] == ["likes_red"]


def test_tenant_quota_zero_still_sheds_a_cached_query():
    server = PreferenceServer(small_db())
    acme = namespaced("acme", "u1")
    server.add_preference(acme, green())
    rig = Rig(server, tenant_quota=0)
    try:
        # Warm the entry in process: the quota refuses every wire query.
        rig.net.service.query(acme)
        assert rig.net.service.probe(acme) is not None
        client = rig.client(tenant="acme")
        with pytest.raises(Overloaded) as excinfo:
            client.query("u1")
        assert excinfo.value.reason == "tenant-quota"
        assert client.stats()["loop_hits"] == 0
    finally:
        rig.close()


def test_a_poisoned_server_refuses_a_cached_query_typed(durable):
    rig, vfs = durable
    reader, writer = rig.client(), rig.client()
    reader.query("u1")
    reader.query("u1")
    vfs.fail = True
    with pytest.raises(DurabilityError):
        writer.add_preference("u2", red())
    assert rig.server.current_snapshot() is None
    with pytest.raises(WALPoisoned):
        reader.query("u1")


def test_a_draining_server_refuses_a_cached_query_typed():
    server = PreferenceServer(small_db())
    server.add_preference(U1, green())
    rig = Rig(server, test_ops=True)
    try:
        reader, holder = rig.client(), rig.client()
        reader.query("u1")
        reader.query("u1")
        deadline = time.monotonic() + 10.0
        # The miss's worker may still be winding down after its reply.
        while rig.net.executor.pending() and time.monotonic() < deadline:
            time.sleep(0.005)
        # An in-flight slow request keeps the drain running while we probe.
        slow = threading.Thread(target=lambda: holder.ping(delay_ms=1500))
        slow.start()
        while rig.net.executor.pending() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        drained = asyncio.run_coroutine_threadsafe(rig.net.drain(), rig.handle.loop)
        while not rig.net.draining and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(Overloaded) as excinfo:
            reader.query("u1")
        assert excinfo.value.reason == "shutting-down"
        slow.join(15.0)
        assert drained.result(15.0) is True
    finally:
        rig.close()


def test_the_next_query_reflects_an_acknowledged_write(rig):
    client = rig.client()
    client.query("u1")
    client.query("u1")
    assert client.add_preference("u1", red())["added"] is True
    after_pref = client.query("u1")
    assert after_pref["prefs"] == ["likes_green", "likes_red"]
    assert after_pref == rig.oracle(U1)
    client.query("u1")  # cached again
    assert client.insert("ITEMS", [5, "lime", "green"])["inserted"] is True
    after_insert = client.query("u1")
    assert after_insert == rig.oracle(U1)
    assert after_insert != after_pref


def test_a_direct_database_write_is_never_hidden_by_the_loop(rig):
    client = rig.client()
    client.query("u1")
    before = client.query("u1")
    published = rig.server.snapshot()
    # Around the write methods: no commit feed, only the version moves.
    rig.server.db.insert("ITEMS", (6, "kiwi", "green"))
    assert rig.server.current_snapshot() is None
    after = client.query("u1")
    assert after == rig.oracle(U1)
    assert after != before
    assert rig.server.snapshot() is not published
