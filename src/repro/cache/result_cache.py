"""Digest-keyed result cache: bounded LRU, single-flight, targeted invalidation.

The cache stores fully rendered query replies keyed by value digests
(data digest of the plan's read set, canonical plan fingerprint, user
profile digest — assembled by :mod:`repro.cache.service`).  Because every
component of the key is a content digest, a stale entry can never be *hit*
— any state change changes the key — so explicit invalidation exists to
reclaim memory and keep the hit-rate accounting honest, not for
correctness.

Three disciplines:

* **Bounded LRU** — entries carry an approximate byte size (canonical-JSON
  length of the reply); inserting past ``max_bytes`` evicts from the cold
  end until the budget holds again.  A reply larger than the whole budget
  is returned but never stored, and evicts nothing.
* **Single-flight** — concurrent ``get_or_compute`` calls for one key
  compute once: the first caller becomes the leader, the rest block on an
  event and reuse its value.  A leader that *fails* wakes the waiters to
  retry themselves (one becomes the next leader) — errors are per-request
  (deadlines, cancellations) and must not be broadcast.
* **Targeted invalidation** — ``invalidate(user=...)`` / ``(table=...)``
  drop exactly the entries a committed mutation made unreachable, using the
  metadata each entry carries (owning user, referenced relations).

Every event emits a ``cache.hit`` / ``cache.miss`` / ``cache.evict`` /
``cache.invalidate`` span into the ambient :mod:`repro.obs` tracer (free
when no tracer is installed).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs.tracer import current_tracer
from ..serve.codec import canonical_json

#: Default memory budget: generous for test workloads, small enough that a
#: long-running server cannot hoard result payloads unboundedly.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Flat byte charge for a reply canonical JSON cannot measure.
_OPAQUE_CHARGE = 4096


class CacheStats:
    """Counter block for one :class:`ResultCache` (guarded by its lock)."""

    __slots__ = (
        "hits",
        "misses",
        "bypasses",
        "evictions",
        "invalidations",
        "single_flight_waits",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0
        self.invalidations = 0
        self.single_flight_waits = 0


class _Entry:
    __slots__ = ("value", "nbytes", "user", "relations")

    def __init__(self, value, nbytes: int, user, relations) -> None:
        self.value = value
        self.nbytes = nbytes
        self.user = user
        self.relations = frozenset(relations)


class _InFlight:
    """One leader computing a key; waiters block on the event."""

    __slots__ = ("event", "value", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.failed = False


class ResultCache:
    """Bounded, observable, single-flight LRU over digest keys.

    Thread-safe; the internal lock is leaf-level (never held while
    computing or emitting spans), so it composes with the server mutex —
    commit-order listeners may call :meth:`invalidate` while readers hit
    the cache.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._inflight: dict[tuple, _InFlight] = {}
        self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    # -- the read path -----------------------------------------------------------

    def get_or_compute(
        self,
        key: tuple,
        compute,
        *,
        user=None,
        relations=(),
    ):
        """The cached value for *key*, computing (once) on a miss.

        *user* and *relations* are invalidation metadata attached to the
        entry.  Exceptions from *compute* propagate to the caller that
        ran it; blocked waiters then retry the computation themselves.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    value = entry.value
                flight = None if entry is not None else self._inflight.get(key)
                if entry is None and flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                    self.stats.misses += 1
                elif entry is None:
                    leader = False
                    self.stats.single_flight_waits += 1
            if entry is not None:
                self._emit("cache.hit", key=_short(key))
                return value
            if not leader:
                flight.event.wait()
                if not flight.failed:
                    with self._lock:
                        self.stats.hits += 1
                    self._emit("cache.hit", key=_short(key), single_flight=True)
                    return flight.value
                continue  # leader failed: compete to become the next leader
            self._emit("cache.miss", key=_short(key))
            try:
                value = compute()
            except BaseException:
                with self._lock:
                    flight.failed = True
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            self._insert(key, value, user=user, relations=relations)
            with self._lock:
                flight.value = value
                self._inflight.pop(key, None)
            flight.event.set()
            return value

    def peek(self, key: tuple):
        """The cached value for *key*, or None; never computes or waits.

        A hit counts and refreshes the entry exactly as in
        :meth:`get_or_compute`.  An absent key, or one a leader is still
        computing, returns None without counting anything: the caller
        then takes :meth:`get_or_compute`, which counts the lookup once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            value = entry.value
        self._emit("cache.hit", key=_short(key))
        return value

    def count_bypass(self) -> None:
        """Record a request served around the cache (uncacheable plan/profile)."""
        with self._lock:
            self.stats.bypasses += 1

    # -- writes ------------------------------------------------------------------

    def _insert(self, key: tuple, value, *, user, relations) -> None:
        nbytes = self._sizeof(value)
        if nbytes > self.max_bytes:
            # Storing it would evict every other entry and then itself.
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(value, nbytes, user, relations)
            self._bytes += nbytes
            while self._bytes > self.max_bytes:
                _, cold = self._entries.popitem(last=False)
                self._bytes -= cold.nbytes
                self.stats.evictions += 1
                evicted += 1
        if evicted:
            self._emit("cache.evict", count=evicted)

    @staticmethod
    def _sizeof(value) -> int:
        try:
            return len(canonical_json(value).encode("utf-8"))
        except (TypeError, ValueError):
            return _OPAQUE_CHARGE

    def invalidate(
        self,
        *,
        user=None,
        table: str | None = None,
        reason: str = "",
    ) -> int:
        """Drop entries matching any given criterion; returns how many.

        ``user=`` drops one user's entries (preference churn), ``table=``
        drops every entry whose plan read that relation (row mutations).
        With no criteria the whole cache is cleared.
        """
        with self._lock:
            if user is None and table is None:
                doomed = list(self._entries)
            else:
                doomed = [
                    key
                    for key, entry in self._entries.items()
                    if (user is not None and entry.user == user)
                    or (table is not None and table in entry.relations)
                ]
            for key in doomed:
                entry = self._entries.pop(key)
                self._bytes -= entry.nbytes
            self.stats.invalidations += len(doomed)
        if doomed:
            self._emit("cache.invalidate", count=len(doomed), reason=reason)
        return len(doomed)

    def clear(self) -> int:
        return self.invalidate(reason="clear")

    # -- introspection -----------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Counters + occupancy as one JSON-able dict (the ``stats`` op shape)."""
        with self._lock:
            stats = self.stats
            lookups = stats.hits + stats.misses
            return {
                "hits": stats.hits,
                "misses": stats.misses,
                "bypasses": stats.bypasses,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations,
                "single_flight_waits": stats.single_flight_waits,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hit_rate": (stats.hits / lookups) if lookups else 0.0,
            }

    @staticmethod
    def _emit(name: str, **attrs) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return
        with tracer.span(name) as span:
            for key, value in attrs.items():
                span.set(key, value)


def _short(key: tuple) -> str:
    """Abbreviated key for span labels (digest prefixes, not full hashes)."""
    return "/".join(
        part[:12] if isinstance(part, str) else repr(part) for part in key
    )
