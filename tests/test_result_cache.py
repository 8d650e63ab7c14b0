"""Unit tests for the digest-keyed result cache and its key components.

Covers the three key ingredients (plan fingerprint, profile digest, table
digest memoization), the :class:`~repro.cache.result_cache.ResultCache`
container semantics (LRU byte budget, targeted invalidation, single-flight
deduplication), and the :class:`~repro.cache.service.CachedQueryService`
behaviour the serving layer relies on (hits, commit-feed invalidation,
bypass of uncacheable profiles).  Byte-identity against the cache-off
oracle across random interleavings lives in
``tests/test_cache_conformance.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.cache import CachedQueryService, ResultCache
from repro.core.preference import Preference
from repro.core.scoring import CallableScore
from repro.engine.database import Database
from repro.engine.expressions import eq
from repro.engine.types import DataType
from repro.errors import PreferenceError
from repro.plan import UncacheablePlan, plan_fingerprint
from repro.plan.nodes import Materialized
from repro.query.session import Session
from repro.serve import codec
from repro.serve.server import ServerSnapshot
from repro.serve.server import PreferenceServer, state_digest, table_digest
from repro.serve.net.server import namespaced  # noqa: F401 - fixture parity

SQL = """
    SELECT name, colour FROM ITEMS
    PREFERRING {names}
    TOP 3 BY score
"""


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Wrap ``owner.name`` with a counter; returns the one-cell count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


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
    return Preference("likes_red", "ITEMS", eq("colour", "red"), 0.8, 0.8)


def opaque() -> Preference:
    return Preference(
        "opaque",
        "ITEMS",
        eq("colour", "red"),
        CallableScore(lambda colour: 0.5, ["colour"]),
        0.9,
    )


@pytest.fixture()
def server():
    return PreferenceServer(small_db())


def compiled(server, names="likes_green", strategy="gbu"):
    session = server.snapshot().session_for("u1", strategy=strategy)
    return session.compile(SQL.format(names=names))


# -- plan fingerprints ---------------------------------------------------------


class TestPlanFingerprint:
    def test_recompiles_fingerprint_identically(self, server):
        server.add_preference("u1", green())
        a = plan_fingerprint(compiled(server).plan, strategy="gbu")
        b = plan_fingerprint(compiled(server).plan, strategy="gbu")
        assert a == b

    def test_strategy_and_oracle_flag_change_the_fingerprint(self, server):
        server.add_preference("u1", green())
        plan = compiled(server).plan
        base = plan_fingerprint(plan, strategy="gbu")
        assert plan_fingerprint(plan, strategy="bu") != base
        assert plan_fingerprint(plan, strategy="gbu", extra={"oracle": True}) != base

    def test_different_preferences_change_the_fingerprint(self, server):
        server.add_preference("u1", green())
        server.add_preference("u1", red())
        one = plan_fingerprint(compiled(server, "likes_green").plan, strategy="gbu")
        two = plan_fingerprint(
            compiled(server, "likes_green, likes_red").plan, strategy="gbu"
        )
        assert one != two

    def test_materialized_leaf_is_uncacheable(self, server):
        table = small_db().table("ITEMS")
        leaf = Materialized(table.schema, table.rows, name="tmp")
        with pytest.raises(UncacheablePlan):
            plan_fingerprint(leaf, strategy="gbu")


# -- profile digests -----------------------------------------------------------


class TestProfileDigest:
    def test_stable_and_memoized(self, server):
        server.add_preference("u1", green())
        store = server.store
        assert store.profile_digest("u1") == store.profile_digest("u1")

    def test_mutations_move_the_digest_and_removal_restores_it(self, server):
        store = server.store
        empty = store.profile_digest("u1")
        server.add_preference("u1", green())
        with_green = store.profile_digest("u1")
        assert with_green != empty
        server.add_preference("u1", red())
        assert store.profile_digest("u1") != with_green
        server.remove_preference("u1", "likes_red")
        assert store.profile_digest("u1") == with_green
        server.clear_preferences("u1")
        assert store.profile_digest("u1") == empty

    def test_order_insensitive(self):
        a = PreferenceServer(small_db())
        b = PreferenceServer(small_db())
        a.add_preference("u1", green())
        a.add_preference("u1", red())
        b.add_preference("u1", red())
        b.add_preference("u1", green())
        assert a.store.profile_digest("u1") == b.store.profile_digest("u1")

    def test_snapshot_keeps_the_digest_of_its_instant(self, server):
        server.add_preference("u1", green())
        snapshot = server.snapshot()
        before = snapshot.store.profile_digest("u1")
        server.add_preference("u1", red())
        assert snapshot.store.profile_digest("u1") == before
        assert server.store.profile_digest("u1") != before

    def test_unserializable_profile_raises_typed(self, server):
        server.add_preference("u1", opaque())
        with pytest.raises(PreferenceError):
            server.store.profile_digest("u1")

    def test_successive_snapshots_serialize_the_profile_once(self, server, monkeypatch):
        server.add_preference("u1", green())
        serialized = _count_calls(monkeypatch, codec, "preference_to_dict")
        first = server.snapshot().store.profile_digest("u1")
        second = server.snapshot().store.profile_digest("u1")
        assert first == second == server.store.profile_digest("u1")
        assert serialized == [1]

    def test_stale_snapshot_digest_never_answers_for_the_live_store(self, server):
        server.add_preference("u1", green())
        stale = server.snapshot()
        server.add_preference("u1", red())
        # Computed on the stale snapshot *after* the mutation: it lands in
        # the shared memo under the old stamp only.
        old = stale.store.profile_digest("u1")
        live = server.store.profile_digest("u1")
        assert live != old
        assert server.snapshot().store.profile_digest("u1") == live
        assert stale.store.profile_digest("u1") == old


# -- table digests and snapshot digest memoization -----------------------------


class TestDigestMemoization:
    def test_frozen_table_memoizes_its_content_digest(self, server):
        snapshot = server.snapshot()
        table = snapshot.db.table("ITEMS")
        first = table_digest(table)
        assert getattr(table, "_content_digest", None) == first
        assert table_digest(table) == first

    def test_live_mutation_changes_the_table_digest(self, server):
        before = table_digest(server.db.table("ITEMS"))
        server.insert("ITEMS", (5, "lime", "green"))
        assert table_digest(server.db.table("ITEMS")) != before

    def test_snapshot_digest_is_cached_and_stable(self, server):
        server.add_preference("u1", green())
        snapshot = server.snapshot()
        first = snapshot.digest()
        assert snapshot.__dict__.get("_digest") == first
        assert snapshot.digest() == first
        # The live server moves on; the frozen snapshot's digest does not.
        server.insert("ITEMS", (5, "lime", "green"))
        assert snapshot.digest() == first
        assert state_digest(server.db, server.store) != first


# -- the ResultCache container -------------------------------------------------


class TestResultCache:
    def test_lru_evicts_by_byte_budget(self):
        cache = ResultCache(max_bytes=220)
        payload = {"filler": "x" * 60}
        for index in range(4):
            cache.get_or_compute(("k", index), lambda: dict(payload))
        stats = cache.stats_snapshot()
        assert stats["evictions"] >= 1
        assert stats["bytes"] <= 220
        # The cold end was evicted; the hot end still hits.
        before = cache.stats_snapshot()["hits"]
        cache.get_or_compute(("k", 3), lambda: dict(payload))
        assert cache.stats_snapshot()["hits"] == before + 1

    def test_an_oversized_reply_is_not_stored_and_evicts_nothing(self):
        cache = ResultCache(max_bytes=200)
        for index in range(5):
            cache.get_or_compute(("small", index), lambda: {"r": 1})
        big = {"filler": "x" * 500}
        assert cache.get_or_compute(("big",), lambda: big) == big
        stats = cache.stats_snapshot()
        assert stats["evictions"] == 0
        assert stats["entries"] == 5
        assert ("big",) not in cache
        calls = []
        for index in range(5):
            cache.get_or_compute(("small", index), lambda: calls.append(1) or {"r": 1})
        assert calls == []  # every small entry still hits
        assert cache.stats_snapshot()["hits"] == 5

    def test_invalidate_by_user_is_targeted(self):
        cache = ResultCache()
        cache.get_or_compute("a", lambda: {"r": 1}, user="u1", relations=("ITEMS",))
        cache.get_or_compute("b", lambda: {"r": 2}, user="u2", relations=("ITEMS",))
        cache.invalidate(user="u1", reason="test")
        stats = cache.stats_snapshot()
        assert stats["entries"] == 1
        assert stats["invalidations"] == 1
        calls = []
        cache.get_or_compute("b", lambda: calls.append(1) or {"r": 2}, user="u2")
        assert calls == []  # u2's entry survived

    def test_invalidate_by_table_is_targeted(self):
        cache = ResultCache()
        cache.get_or_compute("a", lambda: {"r": 1}, relations=("ITEMS",))
        cache.get_or_compute("b", lambda: {"r": 2}, relations=("OTHER",))
        cache.invalidate(table="ITEMS", reason="test")
        assert cache.stats_snapshot()["entries"] == 1
        assert "b" in cache and "a" not in cache

    def test_single_flight_deduplicates_concurrent_misses(self):
        cache = ResultCache()
        computes = []
        gate = threading.Event()

        def compute():
            computes.append(1)
            gate.wait(2.0)
            return {"r": 42}

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_compute("k", compute))
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(computes) == 1
        assert all(r == {"r": 42} for r in results)
        assert cache.stats_snapshot()["single_flight_waits"] >= 1

    def test_leader_failure_lets_a_waiter_recompute(self):
        cache = ResultCache()
        attempts = []
        first_entered = threading.Event()
        release_first = threading.Event()

        def compute():
            attempts.append(threading.current_thread().name)
            if len(attempts) == 1:
                first_entered.set()
                release_first.wait(2.0)
                raise RuntimeError("leader died")
            return {"r": "recovered"}

        outcomes = {}

        def leader():
            try:
                cache.get_or_compute("k", compute)
            except RuntimeError:
                outcomes["leader"] = "raised"

        def waiter():
            outcomes["waiter"] = cache.get_or_compute("k", compute)

        t1 = threading.Thread(target=leader, name="leader")
        t1.start()
        assert first_entered.wait(2.0)
        t2 = threading.Thread(target=waiter, name="waiter")
        t2.start()
        # Give the waiter a moment to park on the in-flight event, then fail
        # the leader: the error must reach only the leader.
        import time

        time.sleep(0.05)
        release_first.set()
        t1.join()
        t2.join()
        assert outcomes["leader"] == "raised"
        assert outcomes["waiter"] == {"r": "recovered"}
        assert len(attempts) == 2

    def test_peek_hits_and_refreshes_like_get_or_compute(self):
        payload = {"filler": "x" * 60}
        sizing = ResultCache()
        sizing.get_or_compute("k", lambda: dict(payload))
        entry_bytes = sizing.stats_snapshot()["bytes"]
        cache = ResultCache(max_bytes=2 * entry_bytes + entry_bytes // 2)  # two fit
        assert cache.peek("k0") is None
        assert cache.stats_snapshot()["misses"] == 0  # an absent key counts nothing
        cache.get_or_compute("k0", lambda: dict(payload))
        cache.get_or_compute("k1", lambda: dict(payload))
        assert cache.peek("k0") == payload  # k0 is now the hot end
        assert cache.stats_snapshot()["hits"] == 1
        cache.get_or_compute("k2", lambda: dict(payload))
        assert cache.peek("k1") is None
        assert cache.peek("k0") == payload

    def test_peek_never_waits_on_an_in_flight_key(self):
        cache = ResultCache()
        entered, release = threading.Event(), threading.Event()

        def compute():
            entered.set()
            release.wait(2.0)
            return {"r": 1}

        leader = threading.Thread(target=lambda: cache.get_or_compute("k", compute))
        leader.start()
        try:
            assert entered.wait(2.0)
            before = cache.stats_snapshot()
            assert cache.peek("k") is None
            assert cache.stats_snapshot() == before
        finally:
            release.set()
            leader.join()
        assert cache.peek("k") == {"r": 1}


# -- the cached query service --------------------------------------------------


class TestCachedQueryService:
    def test_repeat_query_hits_and_stays_byte_identical(self, server):
        server.add_preference("u1", green())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        first = cached.query("u1")
        second = cached.query("u1")
        assert first == second == oracle.query("u1")
        stats = cached.stats_snapshot()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_identical_profiles_share_one_entry(self, server):
        # Same profile, same data, same plan → same digests → same key: the
        # second user's first query is already a hit.  Every key component
        # is a value digest, so the shared entry can never be wrong for
        # either user.
        server.add_preference("u1", green())
        server.add_preference("u2", green())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        cached.query("u1")
        cached.query("u2")
        stats = cached.stats_snapshot()
        assert stats["entries"] == 1
        assert stats["hits"] == 1

    def test_pref_mutation_invalidates_only_that_user(self, server):
        server.add_preference("u1", green())
        server.add_preference("u2", red())  # distinct profile, distinct key
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        cached.query("u1")
        cached.query("u2")
        server.add_preference("u1", red())
        stats = cached.stats_snapshot()
        assert stats["invalidations"] == 1
        assert stats["entries"] == 1  # u2's entry survived
        oracle = CachedQueryService(server, None, default_sql=SQL)
        assert cached.query("u1") == oracle.query("u1")

    def test_row_insert_invalidates_readers_of_that_table(self, server):
        server.add_preference("u1", green())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        stale = cached.query("u1")
        server.insert("ITEMS", (5, "lime", "green"))
        fresh = cached.query("u1")
        assert fresh != stale
        oracle = CachedQueryService(server, None, default_sql=SQL)
        assert fresh == oracle.query("u1")

    def test_unserializable_profile_bypasses_but_still_answers(self, server):
        # No WAL on this server, so an opaque CallableScore preference is
        # storable — it just has no stable profile digest to cache under.
        server.add_preference("u1", opaque())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        assert cached.query("u1") == oracle.query("u1")
        stats = cached.stats_snapshot()
        assert stats["bypasses"] == 1
        assert stats["entries"] == 0

    def test_empty_profile_short_circuits_uncached(self, server):
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        reply = cached.query("nobody")
        assert reply["rows"] == 0
        assert reply["triples"] == []
        assert cached.stats_snapshot()["entries"] == 0

    def test_bypassed_query_compiles_once(self, server, monkeypatch):
        server.add_preference("u1", opaque())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        compiles = _count_calls(monkeypatch, Session, "compile")
        cached.query("u1")
        assert compiles == [1]
        assert cached.stats_snapshot()["bypasses"] == 1


class TestPreparedKeyMemo:
    def test_repeated_query_skips_session_compile_and_fingerprint(
        self, server, monkeypatch
    ):
        from repro.cache import service

        server.add_preference("u1", green())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        first = cached.query("u1")
        compiles = _count_calls(monkeypatch, Session, "compile")
        fingerprints = _count_calls(monkeypatch, service, "plan_fingerprint")
        sessions = _count_calls(monkeypatch, ServerSnapshot, "session_for")
        for _ in range(3):
            assert cached.query("u1") == first
        assert compiles == fingerprints == sessions == [0]
        assert cached.stats_snapshot()["hits"] == 3

    def test_memo_hit_with_evicted_entry_recomputes_identically(self, server):
        server.add_preference("u1", green())
        cache = ResultCache()
        cached = CachedQueryService(server, cache, default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        cached.query("u1")
        cache.clear()  # the memo still maps the request to its key
        assert cached.query("u1") == oracle.query("u1")
        assert cached.stats_snapshot()["misses"] == 2

    def test_memo_never_outgrows_the_result_cache(self, server):
        server.add_preference("u1", green())
        server.add_preference("u1", red())
        # Room for a handful of replies only, so the LRU evicts as we go.
        cache = ResultCache(max_bytes=600)
        cached = CachedQueryService(server, cache, default_sql=SQL)
        for n in range(40):
            # Distinct texts: TOP k changes the key, padding does not.
            text = SQL.format(names="likes_green, likes_red").replace(
                "TOP 3", f"TOP {1 + n % 8}"
            ) + " " * n
            cached.query("u1", sql=text)
            assert len(cached._prepared) <= len(cache)
        assert cache.stats_snapshot()["evictions"] > 0

    def test_preference_write_and_new_db_version_drop_memo_entries(self, server):
        server.add_preference("u1", green())
        server.add_preference("u2", red())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        cached.query("u1")
        cached.query("u2")
        assert len(cached._prepared) == 2
        server.add_preference("u1", red())
        assert [v[2] for v in cached._prepared.values()] == ["u2"]
        server.insert("ITEMS", (5, "lime", "green"))
        cached.query("u2")
        assert len(cached._prepared) == 1
        assert {k[0] for k in cached._prepared} == {server.db.version}
