"""Per-user preference stores and cross-user blending.

The paper's application scenario (Section V) keeps a set of collected
preferences per user and composes them — Q3 blends Alice's mandatory
preferences with Bob's for social recommendations.  This module provides the
bookkeeping: a :class:`PreferenceStore` maps users to their (possibly
context-dependent) preferences and hands out ready-made sessions.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from ..core.aggregates import F_S, AggregateFunction
from ..core.context import ContextualPreference
from ..core.preference import Preference
from ..engine.database import Database
from ..errors import PreferenceError
from ..pexec.engine import DEFAULT_STRATEGY
from ..serve.rwlock import RWLock
from .session import Session

StoredPreference = "Preference | ContextualPreference"


class PreferenceStore:
    """Preferences collected per user, with session and blending helpers.

    Thread safety: every mutation takes the exclusive side of an internal
    readers/writer lock and bumps :attr:`version`; readers take the shared
    side and always observe a complete bucket.  :meth:`snapshot` captures a
    frozen copy for running queries against (preference objects themselves
    are immutable, so copying the per-user dictionaries suffices).
    """

    def __init__(self, db: Database):
        self.db = db
        self._by_user: dict[str, dict[str, object]] = {}
        self._lock = RWLock("store.rwlock")
        #: Monotonic mutation counter, copied into snapshots.
        self.version = 0
        self._frozen = False
        #: Per-user mutation stamp: the store version of the user's last
        #: mutation.  Copied into snapshots, so a stamp names one profile.
        self._stamps: dict[str, int] = {}
        #: Profile-digest memo, ``user -> (stamp, digest)``, shared by the
        #: live store and every snapshot of it.  An entry answers only for
        #: its exact stamp, and mutators pop the user's entry, so the memo
        #: holds at most one digest per user.
        self._profile_digests: dict[str, tuple[int, str]] = {}

    # -- snapshots --------------------------------------------------------------

    @property
    def is_snapshot(self) -> bool:
        return self._frozen

    def snapshot(self, db: "Database | None" = None) -> "PreferenceStore":
        """A frozen copy of every user's preferences as of this instant.

        *db* lets callers bind the snapshot to a matching
        :meth:`Database.snapshot` so sessions built from it see one
        consistent (data, preferences) pair.  Snapshotting a snapshot
        returns it unchanged (possibly rebound to *db*).
        """
        if self._frozen and db is None:
            return self
        with self._lock.read_locked():
            clone = PreferenceStore(db if db is not None else self.db)
            clone._by_user = {
                user: dict(bucket) for user, bucket in self._by_user.items()
            }
            clone.version = self.version
            clone._frozen = True
            clone._stamps = dict(self._stamps)
            clone._profile_digests = self._profile_digests
            return clone

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise PreferenceError(
                "preference-store snapshot is read-only; mutate the live store"
            )

    # -- bookkeeping -----------------------------------------------------------

    def add(self, user: str, preference: "Preference | ContextualPreference") -> None:
        """Store *preference* for *user* (names are unique per user)."""
        with self._lock.write_locked():
            self._ensure_mutable()
            self._add_locked(user, preference)
            self._touched(user)

    def _add_locked(
        self, user: str, preference: "Preference | ContextualPreference"
    ) -> None:
        bucket = self._by_user.setdefault(user, {})
        key = preference.name.lower()
        if key in bucket:
            raise PreferenceError(
                f"user {user!r} already has a preference named {preference.name!r}"
            )
        bucket[key] = preference

    def add_all(
        self, user: str, preferences: Iterable["Preference | ContextualPreference"]
    ) -> None:
        """Store several preferences atomically: all of them or none.

        A name collision anywhere in the batch — against the user's existing
        preferences or within the batch itself — raises
        :exc:`~repro.errors.PreferenceError` naming the offending preference
        and leaves the store exactly as it was (no partial bucket).
        """
        batch = list(preferences)
        with self._lock.write_locked():
            self._ensure_mutable()
            staged = dict(self._by_user.get(user, {}))
            for preference in batch:
                key = preference.name.lower()
                if key in staged:
                    raise PreferenceError(
                        f"add_all rolled back: user {user!r} would get a "
                        f"duplicate preference named {preference.name!r}"
                    )
                staged[key] = preference
            if staged:
                self._by_user[user] = staged
            self._touched(user)

    def remove(self, user: str, name: str) -> bool:
        """Drop one stored preference; False when the user didn't have it."""
        with self._lock.write_locked():
            self._ensure_mutable()
            removed = self._by_user.get(user, {}).pop(name.lower(), None)
            if removed is not None:
                self._touched(user)
            return removed is not None

    def clear(self, user: str) -> int:
        """Drop all of *user*'s preferences; returns how many were removed."""
        with self._lock.write_locked():
            self._ensure_mutable()
            dropped = len(self._by_user.pop(user, {}))
            if dropped:
                self._touched(user)
            return dropped

    def _touched(self, user: str) -> None:
        """Record a mutation of *user*'s bucket (caller holds the write lock)."""
        self.version += 1
        self._stamps[user] = self.version
        self._profile_digests.pop(user, None)

    def preferences_of(self, user: str) -> list[object]:
        with self._lock.read_locked():
            return list(self._by_user.get(user, {}).values())

    def profile_digest(self, user: str) -> str:
        """sha256 over the user's canonically serialized preferences.

        Order-insensitive (serializations are sorted before hashing): two
        profiles digest equal iff they hold the same preference *set*.  The
        digest is memoized under the user's mutation stamp, in a memo the
        live store shares with its snapshots: successive snapshots of an
        unchanged profile serialize it once, and a digest computed on a
        stale snapshot never answers for a newer stamp.  An unknown user
        digests as the empty profile.

        Raises :exc:`~repro.errors.PreferenceError` when a stored preference
        has no canonical serialization (``CallableScore``, predicate
        contexts) — such profiles have no stable identity to cache under.
        """
        # Imported here, not at module top: the serve package initializer is
        # deliberately import-light and this module loads before it.
        from ..serve.codec import canonical_json, preference_to_dict

        with self._lock.read_locked():
            stamp = self._stamps.get(user)
            cached = self._profile_digests.get(user)
            if cached is not None and cached[0] == stamp:
                return cached[1]
            stored = list(self._by_user.get(user, {}).values())
            body = canonical_json(
                sorted((preference_to_dict(s) for s in stored), key=canonical_json)
            )
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            # Racing a reader of another snapshot (or a mutator popping the
            # entry) can at worst leave an older stamp in place, which costs
            # a recomputation but never a wrong answer: lookups match stamps
            # exactly.
            if stamp is not None and (cached is None or cached[0] < stamp):
                self._profile_digests[user] = (stamp, digest)
            return digest

    def users(self) -> list[str]:
        with self._lock.read_locked():
            return sorted(self._by_user)

    # -- sessions ---------------------------------------------------------------

    def session_for(
        self,
        user: str,
        strategy: str = DEFAULT_STRATEGY,
        aggregate: AggregateFunction = F_S,
        context: Mapping | None = None,
    ) -> Session:
        """A session with the user's preferences registered."""
        session = Session(self.db, strategy=strategy, aggregate=aggregate)
        session.register_all(self.preferences_of(user))
        if context:
            session.set_context(**context)
        return session

    def blended_session(
        self,
        users: Iterable[str],
        strategy: str = DEFAULT_STRATEGY,
        aggregate: AggregateFunction = F_S,
    ) -> Session:
        """A session carrying several users' preferences at once (Example 11).

        Name clashes across users are disambiguated by prefixing the user
        name (``alice.p2``); preferences keep their scores and confidences —
        applications wanting to weight one user over another can register
        re-scaled copies instead.
        """
        session = Session(self.db, strategy=strategy, aggregate=aggregate)
        taken: set[str] = set()
        for user in users:
            for stored in self.preferences_of(user):
                name = stored.name.lower()
                if name in taken:
                    stored = _renamed(stored, f"{user}.{stored.name}")
                taken.add(stored.name.lower())
                session.register(stored)
        return session


def _renamed(stored, new_name: str):
    if isinstance(stored, ContextualPreference):
        inner = stored.preference
        return ContextualPreference(
            Preference(new_name, inner.relations, inner.condition, inner.scoring, inner.confidence),
            stored.when,
        )
    return Preference(
        new_name, stored.relations, stored.condition, stored.scoring, stored.confidence
    )
