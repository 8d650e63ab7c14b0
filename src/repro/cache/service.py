"""The cache-aware serving query path, shared by NetServer and tests.

:class:`CachedQueryService` is the single implementation of "answer a
query for a (namespaced) user": take a consistent
:class:`~repro.serve.server.ServerSnapshot`, compile, execute, render the
wire reply — consulting a :class:`~repro.cache.result_cache.ResultCache`
keyed by

``(sha256 of the referenced tables' content digests,
   canonical plan fingerprint (strategy/aggregate/order/oracle included),
   user profile digest)``

Every key component is a value digest, so the key *is* the correctness
argument: the cached reply is a pure function of the key, and any change
to data, plan or profile changes the key.  Restricting the data digest to
the plan's read set (``plan.relations()``) is what keeps unrelated writes
from evicting hot entries — a row landing in table A never perturbs keys
of queries that only read table B, and one user's preference churn never
touches another user's keys.

Explicit invalidation (:meth:`CachedQueryService.on_mutation`, wired to
the server's commit feed) reclaims the memory of entries whose keys just
became unreachable and keeps hit-rate accounting honest.

Building that key costs a compile, a plan fingerprint and the table
digests — more than the lookup it serves.  A *prepared-key memo* maps
``(snapshot db_version, profile digest, SQL text, strategy, oracle flag)``
to the ``(cache key, relations)`` it produced, so a repeated request skips
all three.  The memo belongs to one service, which fronts one server and
one :class:`~repro.engine.database.Database`; for that one object
``db_version`` pins catalog and data exactly (every DDL and DML call bumps
it), and the profile digest pins the user's preferences, so the memoized
key is the key a fresh compile would build.  The result-cache key itself
is unchanged, which keeps a cache shared between services safe.

:meth:`CachedQueryService.probe` answers a repeated request without
blocking: the server's current snapshot
(:meth:`~repro.serve.server.PreferenceServer.current_snapshot`), the same
memo key :meth:`~CachedQueryService.query` derives, and a
:meth:`~repro.cache.result_cache.ResultCache.peek`.  It never takes the
server mutex, builds a snapshot or waits on single-flight, which is what
lets the network front end run it on its event loop.

Queries with no stable value identity — materialized plan leaves,
preferences without a canonical serialization — bypass the cache
(``bypasses`` counter) and compute exactly as the cache-off path does.
``cache=None`` disables caching entirely: byte-for-byte the same
computation, minus the lookup; that is the conformance oracle mode.
"""

from __future__ import annotations

import hashlib
import threading

from ..errors import PreferenceError
from ..pexec.engine import DEFAULT_STRATEGY
from ..plan.fingerprint import UncacheablePlan, plan_fingerprint
from ..serve.codec import canonical_json
from ..serve.server import table_digest

#: The default preferential query template (IMDB-shaped databases): used
#: when a query names no SQL — the PREFERRING list is the user's preference
#: names as of the serving snapshot, which is what keeps the query and its
#: oracle on one consistent (data, preferences) pair.
DEFAULT_SQL = """
    SELECT title, director, year FROM MOVIES
      NATURAL JOIN GENRES
      NATURAL JOIN DIRECTORS
    WHERE year >= 1980
    PREFERRING {names}
    TOP 10 BY score
"""


class CachedQueryService:
    """Builds query replies for users, through an optional result cache.

    :param server: the owned :class:`~repro.serve.server.PreferenceServer`.
    :param cache: a :class:`~repro.cache.result_cache.ResultCache`, or
        ``None`` for the cache-off oracle path.  When given, the service
        registers itself on the server's commit feed for targeted
        invalidation.
    :param default_sql: template used when a query names no SQL (must
        accept a ``{names}`` placeholder).
    :param default_strategy: strategy when the request names none.
    """

    def __init__(
        self,
        server,
        cache=None,
        *,
        default_sql: str = DEFAULT_SQL,
        default_strategy: str = DEFAULT_STRATEGY,
    ) -> None:
        self.server = server
        self.cache = cache
        self.default_sql = default_sql
        self.default_strategy = default_strategy
        #: The prepared-key memo (see the module docstring): memo key →
        #: ``(cache key, relations, user)``.  Bounded three ways: a newer
        #: ``db_version`` drops every older entry, a preference write drops
        #: the writer's entries, and it never outgrows the result cache.
        self._prepared: dict[tuple, tuple] = {}
        self._prepared_version = -1
        self._prepared_lock = threading.Lock()
        if cache is not None:
            server.add_listener(self.on_mutation)

    # -- the commit feed ---------------------------------------------------------

    def on_mutation(self, op: str, payload: dict) -> None:
        """Targeted invalidation from one committed server mutation.

        Preference ops touch exactly one user's profile digest, so only
        that user's entries die; a row insert touches exactly one table's
        content digest, so only entries whose plans read that table die.
        """
        if self.cache is None:
            return
        if op in ("pref.add", "pref.remove", "pref.clear"):
            self.cache.invalidate(user=payload["user"], reason=op)
            with self._prepared_lock:
                memo = self._prepared
                for key in [k for k, v in memo.items() if v[2] == payload["user"]]:
                    del memo[key]
        elif op == "row.insert":
            self.cache.invalidate(table=str(payload["table"]).upper(), reason=op)

    # -- the query path ----------------------------------------------------------

    def query(
        self,
        user: str,
        *,
        sql: str | None = None,
        strategy: str | None = None,
        want_oracle: bool = False,
    ) -> dict:
        """One wire-shaped query reply for *user*, cached when possible."""
        # Late module-attribute access (not a bound name): the corruption
        # tests monkeypatch protocol.triples_digest to prove the client
        # refuses a server whose digest computation went wrong.
        from ..serve.net import protocol

        strategy = strategy or self.default_strategy
        snapshot = self.server.snapshot()
        names, text = self._text(snapshot, user, sql)
        if text is None:
            empty: list = []
            return {
                "triples": empty,
                "columns": [],
                "prefs": [],
                "digest": protocol.triples_digest(empty),
                "rows": 0,
            }
        if self.cache is None:
            return self._compute(None, snapshot, user, text, strategy, names, want_oracle)
        memo_key = self._memo_key(snapshot, user, text, strategy, want_oracle)
        profile = memo_key[1]
        prepared = self._prepared.get(memo_key)
        session, query = None, text
        if prepared is not None:
            # The hit path: no session, compile, fingerprint or table digest.
            # Should the entry have left the cache, _compute recompiles.
            key, relations, _owner = prepared
        else:
            session = snapshot.session_for(user, strategy=strategy)
            query = session.compile(text)
            keyed = None
            if profile is not None:
                keyed = self._key(session, snapshot, query, strategy, want_oracle, profile)
            if keyed is None:
                self.cache.count_bypass()
                return self._compute(session, snapshot, user, query, strategy, names, want_oracle)
            key, relations = keyed
        reply = self.cache.get_or_compute(
            key,
            lambda: self._compute(
                session, snapshot, user, query, strategy, names, want_oracle
            ),
            user=user,
            relations=relations,
        )
        if prepared is None:
            self._remember(memo_key, key, relations, user)
        return reply

    def probe(
        self,
        user: str,
        *,
        sql: str | None = None,
        strategy: str | None = None,
        want_oracle: bool = False,
    ) -> "dict | None":
        """The cached reply to a repeated request, or None; never blocks.

        Answers only from the server's current snapshot through a memoized
        key whose entry is in the cache: no server mutex, no snapshot
        build, no compile, no single-flight wait.  None counts nothing and
        sends the caller to :meth:`query`, whose reply is byte-identical.
        """
        if self.cache is None:
            return None
        snapshot = self.server.current_snapshot()
        if snapshot is None:
            return None
        _names, text = self._text(snapshot, user, sql)
        if text is None:
            return None
        strategy = strategy or self.default_strategy
        prepared = self._prepared.get(
            self._memo_key(snapshot, user, text, strategy, want_oracle)
        )
        return None if prepared is None else self.cache.peek(prepared[0])

    def _text(self, snapshot, user: str, sql: str | None) -> tuple:
        """``(preference names, SQL text)``; a None text means the empty reply."""
        names = sorted(p.name for p in snapshot.store.preferences_of(user))
        if sql is not None:
            return names, sql
        if not names:
            return names, None
        return names, self.default_sql.format(names=", ".join(names))

    def _memo_key(self, snapshot, user, text, strategy, want_oracle) -> tuple:
        """The prepared-key memo key of one request on *snapshot*."""
        try:
            profile = snapshot.store.profile_digest(user)
        except PreferenceError:
            profile = None  # no stable identity: never memoized, bypasses the cache
        return (snapshot.db_version, profile, text, strategy, bool(want_oracle))

    def _key(self, session, snapshot, compiled, strategy, want_oracle, profile):
        """(cache key, relations) of *compiled* — or None when uncacheable."""
        try:
            fingerprint = plan_fingerprint(
                compiled.plan,
                strategy=strategy,
                aggregate=compiled.aggregate
                or getattr(session.engine.aggregate, "name", None),
                order_by=compiled.order_by,
                extra={"oracle": bool(want_oracle)},
            )
        except UncacheablePlan:
            return None
        relations = tuple(sorted(compiled.plan.relations()))
        data = canonical_json(
            {name: table_digest(snapshot.db.table(name)) for name in relations}
        )
        data_digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
        return (data_digest, fingerprint, profile), relations

    def _remember(self, memo_key, key, relations, user) -> None:
        """Memoize a freshly built key, keeping the memo within its bounds."""
        version = memo_key[0]
        with self._prepared_lock:
            memo = self._prepared
            if version > self._prepared_version:
                memo.clear()
                self._prepared_version = version
            elif version < self._prepared_version:
                return  # an older snapshot's key: no newer request can probe it
            memo[memo_key] = (key, relations, user)
            if len(memo) > len(self.cache):
                for stale in [k for k, v in memo.items() if v[0] not in self.cache]:
                    del memo[stale]
                # Several texts can share one cache key: drop the oldest.
                while len(memo) > len(self.cache):
                    del memo[next(iter(memo))]

    def _compute(self, session, snapshot, user, query, strategy, names, want_oracle):
        """The cache-off computation: execute + render the wire reply.

        *query* is SQL text or an already-compiled
        :class:`~repro.query.model.PreferentialQuery` — byte-identical
        results either way (compilation is deterministic).  *session* may
        be None: the snapshot then builds one for *user*.
        """
        from ..serve.net import protocol

        if session is None:
            session = snapshot.session_for(user, strategy=strategy)
        result = session.execute(query, strategy=strategy)
        presented = result.presented()
        triples = protocol.wire_triples(result)
        reply = {
            "triples": triples,
            "columns": list(presented.schema.attribute_names),
            "prefs": names,
            "digest": protocol.triples_digest(triples),
            "rows": len(triples),
        }
        if want_oracle:
            # The conformance oracle, on the *same snapshot*: the wire
            # result must digest-equal a reference-strategy evaluation
            # of the identical (data, preferences) instant.
            oracle = snapshot.session_for(user, strategy="reference").execute(
                query, strategy="reference"
            )
            reply["oracle_digest"] = protocol.triples_digest(
                protocol.wire_triples(oracle)
            )
        return reply

    def stats_snapshot(self) -> "dict | None":
        """The cache's counter block, or None when caching is off."""
        return self.cache.stats_snapshot() if self.cache is not None else None
