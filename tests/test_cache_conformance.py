"""Differential conformance: cache-on must be byte-identical to cache-off.

The result cache's correctness claim is absolute — a served reply with the
cache enabled is the *same bytes* the cache-off computation produces at the
same server state.  This suite proves it the way the repo proves every
optimization (see ``tests/conformance.py``):

* a hypothesis property drives random interleavings of committed mutations
  (preference add/remove/clear, row inserts) and repeated queries across
  **all six** execution strategies, holding a cache-on service and a
  cache-off oracle against the same live server and asserting reply
  equality at every step — and exact ``(row, score, conf)`` multiset
  equality of the underlying relations;
* a seeded interleaving adds what the property leaves out — DDL on the
  live database (drop and re-create a table under the same name with a
  different schema), custom SQL and ``oracle=True`` — so the prepared-key
  memo is held to the same byte-identity;
* the same seeded interleavings go over the wire through a caching and a
  cache-off ``NetServer`` on one live server, so the event-loop hit path
  is held to it too;
* writes that go around the ``PreferenceServer`` mutators (raw
  ``server.store`` / ``server.db`` calls) skip the commit feed, so nothing
  is invalidated — the digest keys alone must keep the next reply exact;
* a concurrent stress pushes one hot key through a
  :class:`~repro.serve.executor.ServeExecutor` worker pool to show
  single-flight deduplication never changes an answer.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conformance import assert_identical, exact_multiset
from repro.cache import CachedQueryService, ResultCache
from repro.core.preference import Preference
from repro.engine.database import Database
from repro.engine.expressions import cmp, eq
from repro.engine.types import DataType
from repro.query.store import PreferenceStore
from repro.resilience import RetryPolicy
from repro.serve.codec import canonical_json
from repro.serve.executor import ServeExecutor
from repro.serve.net.client import PreferenceClient
from repro.serve.net.server import NetServer, namespaced, serve_in_thread
from repro.serve.server import PreferenceServer

STRATEGIES = ("gbu", "bu", "ftp", "plugin-rma", "plugin-shared", "reference")

SQL = """
    SELECT name, colour FROM ITEMS
    PREFERRING {names}
    TOP 5 BY score
"""

USERS = ("u1", "u2")

#: The preference pool the interleavings draw from: overlapping conditions,
#: distinct scores, one numeric predicate — enough to make fold order and
#: partial matches observable.
PREF_POOL = {
    "likes_green": lambda: Preference(
        "likes_green", "ITEMS", eq("colour", "green"), 0.9, 0.9
    ),
    "likes_red": lambda: Preference(
        "likes_red", "ITEMS", eq("colour", "red"), 0.8, 0.7
    ),
    "likes_heavy": lambda: Preference(
        "likes_heavy", "ITEMS", cmp("weight", ">=", 100), 0.6, 0.95
    ),
    "likes_purple": lambda: Preference(
        "likes_purple", "ITEMS", eq("colour", "purple"), 0.4, 0.5
    ),
}

COLOURS = ("red", "green", "purple", "yellow")


def fresh_server() -> PreferenceServer:
    db = Database()
    db.create_table(
        "ITEMS",
        [
            ("i_id", DataType.INT),
            ("name", DataType.TEXT),
            ("colour", DataType.TEXT),
            ("weight", DataType.INT),
        ],
        primary_key=["i_id"],
    )
    db.insert_many(
        "ITEMS",
        [
            (1, "apple", "red", 120),
            (2, "pear", "green", 90),
            (3, "plum", "purple", 40),
            (4, "grape", "green", 5),
        ],
    )
    return PreferenceServer(db)


# -- the interleaving grammar --------------------------------------------------

_ops = st.one_of(
    st.tuples(
        st.just("add"), st.sampled_from(USERS), st.sampled_from(sorted(PREF_POOL))
    ),
    st.tuples(
        st.just("remove"), st.sampled_from(USERS), st.sampled_from(sorted(PREF_POOL))
    ),
    st.tuples(st.just("clear"), st.sampled_from(USERS), st.just("")),
    st.tuples(st.just("insert"), st.sampled_from(COLOURS), st.integers(0, 200)),
    st.tuples(
        st.just("query"), st.sampled_from(USERS), st.sampled_from(STRATEGIES)
    ),
)


def apply_mutation(server: PreferenceServer, op: tuple) -> None:
    kind = op[0]
    if kind == "add":
        _kind, user, name = op
        if not any(p.name == name for p in server.store.preferences_of(user)):
            server.add_preference(user, PREF_POOL[name]())
    elif kind == "remove":
        server.remove_preference(op[1], op[2])
    elif kind == "clear":
        server.clear_preferences(op[1])
    elif kind == "insert":
        _kind, colour, weight = op
        next_id = len(server.db.table("ITEMS").rows) + 1
        server.insert("ITEMS", (next_id, f"item{next_id}", colour, weight))


class TestCacheConformance:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=14))
    def test_cache_on_is_byte_identical_across_interleavings(self, ops):
        server = fresh_server()
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        for op in ops:
            if op[0] == "query":
                _kind, user, strategy = op
                assert cached.query(user, strategy=strategy) == oracle.query(
                    user, strategy=strategy
                )
            else:
                apply_mutation(server, op)
        # Final sweep: every (user, strategy) pair agrees at the end state,
        # whether its entry is a hit, a miss, or was just invalidated.
        for user in USERS:
            for strategy in STRATEGIES:
                assert cached.query(user, strategy=strategy) == oracle.query(
                    user, strategy=strategy
                )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_ops, min_size=1, max_size=10), st.sampled_from(STRATEGIES))
    def test_underlying_relations_match_exactly(self, ops, strategy):
        # Reply-dict equality above is digest-level; this closes the loop at
        # the relation level with the repo's exact-multiset harness.
        server = fresh_server()
        for op in ops:
            if op[0] != "query":
                apply_mutation(server, op)
        for user in USERS:
            names = sorted(p.name for p in server.store.preferences_of(user))
            if not names:
                continue
            text = SQL.format(names=", ".join(names))
            snapshot = server.snapshot()
            once = snapshot.session_for(user, strategy=strategy).execute(text)
            twice = snapshot.session_for(user, strategy=strategy).execute(text)
            assert_identical(
                once, twice, exact=True, context=f"{user}/{strategy} determinism"
            )
            assert exact_multiset(once) == exact_multiset(twice)


#: Custom SQL the seeded interleaving sends: inline preferences, which
#: compile whatever the user's profile holds.
CUSTOM_SQL = (
    """
    SELECT name, colour FROM ITEMS WHERE weight >= 10
    PREFERRING (colour = 'green') SCORE 0.7 ON ITEMS
    TOP 3 BY score
    """,
    """
    SELECT name FROM ITEMS
    PREFERRING (weight >= 50) SCORE 0.6 CONFIDENCE 0.8 ON ITEMS
    TOP 2 BY score
    """,
)


def recreate_items(db: Database, generation: int) -> None:
    """Drop ITEMS and re-create it under the same name with another schema.

    Goes straight to the live database, around the commit feed: only the
    database version and the table digests know the catalog changed.
    """
    # Odd generations store weight as FLOAT and key the table on name.
    odd = bool(generation % 2)
    db.drop_table("ITEMS")
    db.create_table(
        "ITEMS",
        [
            ("i_id", DataType.INT),
            ("name", DataType.TEXT),
            ("colour", DataType.TEXT),
            ("weight", DataType.FLOAT if odd else DataType.INT),
        ],
        primary_key=["name"] if odd else ["i_id"],
    )
    rows = [
        (1, "apple", "red", 120 + generation),
        (2, "pear", "green", 90),
        (3, "fig", "green", 30 * generation),
    ]
    db.insert_many("ITEMS", rows)


class TestSeededMemoInterleaving:
    @pytest.mark.parametrize("seed", range(8))
    def test_cache_on_matches_cache_off_under_ddl_custom_sql_and_oracle(self, seed):
        rng = random.Random(seed)
        server = fresh_server()
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        generation = 0
        for _step in range(60):
            roll = rng.random()
            user = rng.choice(USERS)
            if roll < 0.12:
                apply_mutation(server, ("add", user, rng.choice(sorted(PREF_POOL))))
            elif roll < 0.18:
                apply_mutation(server, ("remove", user, rng.choice(sorted(PREF_POOL))))
            elif roll < 0.21:
                apply_mutation(server, ("clear", user, ""))
            elif roll < 0.27:
                apply_mutation(server, ("insert", rng.choice(COLOURS), rng.randint(0, 200)))
            elif roll < 0.31:
                generation += 1
                recreate_items(server.db, generation)
            else:
                request = {
                    "strategy": rng.choice(STRATEGIES),
                    "want_oracle": rng.random() < 0.3,
                    "sql": rng.choice((None, None) + CUSTOM_SQL),
                }
                # Every request twice: the second one probes the memo.
                for _ in range(2):
                    on, off = cached.query(user, **request), oracle.query(user, **request)
                    assert canonical_json(on) == canonical_json(off)
                    if request["want_oracle"] and on["rows"]:
                        assert on["digest"] == on["oracle_digest"]
        stats = cached.stats_snapshot()
        assert stats["hits"] > 0 and stats["misses"] > 0


class TestWritesAroundTheServer:
    def test_a_write_bypassing_the_server_mutators_serves_no_stale_reply(self):
        server = fresh_server()
        server.add_preference("u1", PREF_POOL["likes_green"]())
        cache = ResultCache()
        cached = CachedQueryService(server, cache, default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        for strategy in STRATEGIES:
            cached.query("u1", strategy=strategy)  # warm the cache and the memo
        warm = cached.query("u1")
        # Each write skips the commit feed, so no entry is invalidated.
        bypasses = (
            lambda: server.store.add("u1", PREF_POOL["likes_heavy"]()),
            lambda: server.db.insert("ITEMS", (5, "melon", "green", 300)),
            lambda: server.store.remove("u1", "likes_green"),
        )
        for write in bypasses:
            write()
            for strategy in STRATEGIES:
                on = cached.query("u1", strategy=strategy)
                off = oracle.query("u1", strategy=strategy)
                assert canonical_json(on) == canonical_json(off)
        assert cache.stats_snapshot()["invalidations"] == 0
        assert cached.query("u1")["digest"] != warm["digest"]


class TestWireInterleaving:
    """The same seeded interleavings end to end through two ``NetServer``s.

    One front end caches (and so answers repeated queries on its event
    loop), the other serves every query cache-off; both front the same
    live server, so each request's two replies must be the same bytes.
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_front_end_matches_the_cache_off_one(self, seed):
        rng = random.Random(seed)
        server = fresh_server()
        handles = [
            serve_in_thread(
                NetServer(server, cache=cache, tenant_quota=None, default_sql=SQL)
            )
            for cache in (True, False)
        ]
        on, off = (
            PreferenceClient(
                "127.0.0.1", handle.port, deadline_s=15.0, retry=RetryPolicy(attempts=1)
            )
            for handle in handles
        )
        generation = 0
        try:
            for _step in range(50):
                roll = rng.random()
                user = rng.choice(USERS)
                held = {p.name for p in server.store.preferences_of(namespaced("public", user))}
                name = rng.choice(sorted(PREF_POOL))
                if roll < 0.12:
                    if name not in held:
                        on.add_preference(user, PREF_POOL[name]())
                elif roll < 0.18:
                    on.remove_preference(user, name)
                elif roll < 0.21:
                    on.clear_preferences(user)
                elif roll < 0.27:
                    next_id = len(server.db.table("ITEMS").rows) + 1
                    on.insert("ITEMS", [next_id, f"item{next_id}",
                                        rng.choice(COLOURS), rng.randint(0, 200)])
                elif roll < 0.31:
                    generation += 1
                    recreate_items(server.db, generation)
                else:
                    request = {
                        "strategy": rng.choice(STRATEGIES),
                        "oracle": rng.random() < 0.3,
                        "sql": rng.choice((None, None) + CUSTOM_SQL),
                    }
                    # Twice: the second one is a candidate loop hit.
                    for _ in range(2):
                        served = on.query(user, **request)
                        assert canonical_json(served) == canonical_json(off.query(user, **request))
            stats = on.stats()
            assert stats["loop_hits"] > 0
            assert stats["cache"]["hits"] >= stats["loop_hits"]
        finally:
            on.close()
            off.close()
            for handle in handles:
                handle.stop()


class TestConcurrentSingleFlight:
    def test_hot_key_under_a_worker_pool_stays_identical(self):
        server = fresh_server()
        server.add_preference("u1", PREF_POOL["likes_green"]())
        server.add_preference("u1", PREF_POOL["likes_red"]())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        expected = oracle.query("u1")
        executor = ServeExecutor(workers=8, queue_limit=64)
        try:
            futures = [
                executor.submit(cached.query, "u1")
                for i in range(32)
            ]
            replies = [f.result(10.0) for f in futures]
        finally:
            executor.shutdown()
        assert all(reply == expected for reply in replies)
        stats = cached.stats_snapshot()
        # One computation fanned out to everyone: a single miss, the rest
        # hits or single-flight waits — never a divergent recompute.
        assert stats["misses"] == 1
        assert stats["hits"] + stats["single_flight_waits"] >= 31

    def test_memo_and_profile_digests_survive_racing_readers_and_writers(self):
        # More threads than cores and a short switch interval, so the
        # shared memos' check-then-act steps interleave as much as they can.
        server = fresh_server()
        # A preference the writer never removes: every query takes the memo.
        for user in USERS:
            server.add_preference(user, PREF_POOL["likes_purple"]())
        churned = sorted(set(PREF_POOL) - {"likes_purple"})
        cache = ResultCache()
        cached = CachedQueryService(server, cache, default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        errors: list = []

        def reader(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    reply = cached.query(
                        rng.choice(USERS), strategy=rng.choice(("gbu", "ftp")),
                        want_oracle=True,
                    )
                    if reply["rows"] and reply["digest"] != reply["oracle_digest"]:
                        errors.append(reply)
            except Exception as err:  # recorded, asserted below
                errors.append(err)

        def writer() -> None:
            rng = random.Random(99)
            try:
                for _ in range(30):
                    apply_mutation(server, rng.choice([
                        ("add", rng.choice(USERS), rng.choice(churned)),
                        ("remove", rng.choice(USERS), rng.choice(churned)),
                        ("insert", rng.choice(COLOURS), rng.randint(0, 200)),
                    ]))
            except Exception as err:
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Quiescent: every answer matches the oracle, the memo holds only
        # keys of the current version and never more than the cache, and
        # every memoized profile digest is the one a fresh store computes.
        for user in USERS:
            for strategy in ("gbu", "ftp"):
                assert cached.query(user, strategy=strategy) == oracle.query(
                    user, strategy=strategy
                )
            fresh = PreferenceStore(server.db)
            fresh.add_all(user, server.store.preferences_of(user))
            assert server.store.profile_digest(user) == fresh.profile_digest(user)
        assert len(cached._prepared) <= len(cache)
        assert {key[0] for key in cached._prepared} <= {server.db.version}

    def test_churn_under_concurrency_never_serves_stale(self):
        server = fresh_server()
        server.add_preference("u1", PREF_POOL["likes_green"]())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        executor = ServeExecutor(workers=4, queue_limit=64)
        try:
            for round_no in range(6):
                futures = [
                    executor.submit(cached.query, "u1")
                    for i in range(8)
                ]
                replies = [f.result(10.0) for f in futures]
                # All concurrent replies within a quiescent round agree with
                # the oracle at that state.
                expected = oracle.query("u1")
                assert all(reply == expected for reply in replies)
                apply_mutation(
                    server, ("insert", COLOURS[round_no % len(COLOURS)], 50)
                )
        finally:
            executor.shutdown()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
