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
* a concurrent stress pushes one hot key through a
  :class:`~repro.serve.executor.ServeExecutor` worker pool to show
  single-flight deduplication never changes an answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conformance import assert_identical, exact_multiset
from repro.cache import CachedQueryService, ResultCache
from repro.core.preference import Preference
from repro.engine.database import Database
from repro.engine.expressions import cmp, eq
from repro.engine.types import DataType
from repro.serve.executor import ServeExecutor
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
                executor.submit(cached.query, "u1", session=f"s{i % 4}")
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

    def test_churn_under_concurrency_never_serves_stale(self):
        server = fresh_server()
        server.add_preference("u1", PREF_POOL["likes_green"]())
        cached = CachedQueryService(server, ResultCache(), default_sql=SQL)
        oracle = CachedQueryService(server, None, default_sql=SQL)
        executor = ServeExecutor(workers=4, queue_limit=64)
        try:
            for round_no in range(6):
                futures = [
                    executor.submit(cached.query, "u1", session=f"s{i}")
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
