"""The preference server: one durable, concurrently served state.

A :class:`PreferenceServer` owns the *live* pair (database, preference
store) and is the single write path to both.  It stitches the three serving
pillars together:

* **Snapshot isolation** — :meth:`snapshot` captures an immutable
  :class:`ServerSnapshot` (a :meth:`Database.snapshot` plus the matching
  :meth:`PreferenceStore.snapshot`) under the server mutex, so a reader
  never sees a database from one instant paired with preferences from
  another.  Readers then run entire workloads against the snapshot while
  writers keep mutating the live state.  The last snapshot built is
  published and handed to every reader until a version moves, so a read
  of unchanged state takes neither the mutex nor a new snapshot
  (:meth:`~PreferenceServer.current_snapshot`).
* **Durability** — every mutation is applied and then appended to the
  :class:`~repro.serve.wal.PreferenceWAL` before the call returns (the
  append is the commit point: a crash loses only writes that were never
  acknowledged).  :meth:`checkpoint` flushes the full state through the
  format-2 persistence layer (:func:`repro.engine.persist.save_database`
  plus a checksummed ``preferences.json``) and resets the log.
* **Recovery** — :meth:`open` loads the newest checkpoint, replays the
  surviving WAL prefix (tolerantly: a record whose effect is already in
  the checkpoint is skipped, so replay is idempotent), and truncates any
  torn tail.  LSNs resume after the newest of the last surviving record
  and the checkpoint's own LSN, so a restart never reissues a number.

:func:`state_digest` condenses the whole logical state — schemas, rows,
preferences — to one sha256, which is how the crash-recovery fixtures
assert "recovered state == replaying the surviving prefix" byte-for-byte.

Directory layout (``server.directory``)::

    CURRENT             name of the live checkpoint directory (pointer file)
    checkpoint-NNNNNNNN/
        schema.json     format-2 database checkpoint manifest
        *.jsonl         table data files
        preferences.json  checksummed preference checkpoint + its LSN
    preferences.wal     mutations since the checkpoint

Checkpoints are **versioned**: each :meth:`checkpoint` writes a brand-new
``checkpoint-<epoch>`` directory and then atomically flips the ``CURRENT``
pointer at it.  No durable file is ever overwritten in place, so a crash at
*any* instant leaves either the old complete checkpoint (pointer unmoved,
WAL intact → replay redoes the gap) or the new one — never a manifest
describing half-written table files.  Superseded checkpoint directories are
garbage-collected only after the pointer flip is durable.  A directory in
the older unversioned layout (a fixed ``checkpoint/`` directory and no
``CURRENT``) is refused rather than opened as empty.

A server opened without a directory is *ephemeral*: same write path and
snapshot semantics, no durability — what the pure-concurrency stress tests
use.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from threading import Lock

from ..engine.database import Database
from ..engine.persist import SCHEMA_FILE, _atomic_write, load_database, save_database
from ..errors import (
    CatalogError,
    DataCorruption,
    PreferenceError,
    ReproError,
    ResilienceError,
    WALPoisoned,
)
from ..pexec.engine import DEFAULT_STRATEGY
from ..query.store import PreferenceStore
from ..resilience.vfs import current_vfs
from .codec import canonical_json, preference_from_dict, preference_to_dict
from .wal import WAL_FILE, PreferenceWAL, WalReplay

PREFS_FILE = "preferences.json"
#: Fixed checkpoint directory of the unversioned layout; refused on open.
LEGACY_CHECKPOINT_DIR = "checkpoint"
#: Pointer file naming the live versioned checkpoint directory.
CURRENT_FILE = "CURRENT"

_CHECKPOINT_NAME = re.compile(r"^checkpoint-(\d{8})$")


def _current_checkpoint(directory: str, vfs) -> tuple[str | None, int]:
    """Resolve the live checkpoint of *directory*: ``(path-or-None, epoch)``.

    Reads the ``CURRENT`` pointer.  A pointer that names a missing or
    malformed checkpoint is corruption — the pointer flip is ordered after
    the checkpoint files become durable, so no crash can produce it.  No
    pointer but an unversioned ``checkpoint/`` directory is a layout this
    version cannot read: opening it as empty would drop its state.
    """
    pointer_path = os.path.join(directory, CURRENT_FILE)
    if vfs.exists(pointer_path):
        with vfs.open(pointer_path, encoding="utf-8") as handle:
            name = handle.read().strip()
        match = _CHECKPOINT_NAME.match(name)
        if match is None or os.path.sep in name:
            raise DataCorruption(
                f"CURRENT names an invalid checkpoint {name!r}", path=pointer_path
            )
        target = os.path.join(directory, name)
        if not vfs.exists(os.path.join(target, SCHEMA_FILE)):
            raise DataCorruption(
                f"CURRENT points at checkpoint {name!r} which has no manifest",
                path=pointer_path,
            )
        return target, int(match.group(1))
    legacy = os.path.join(directory, LEGACY_CHECKPOINT_DIR)
    if vfs.exists(legacy):
        raise ReproError(
            f"unsupported server directory layout: {legacy!r} is an "
            "unversioned checkpoint and there is no CURRENT pointer"
        )
    return None, 0


@dataclass(frozen=True)
class ServerSnapshot:
    """An immutable, mutually consistent (database, preferences) pair.

    ``db_version``/``store_version`` identify the instant it was taken;
    ``lsn`` is the last WAL record reflected in it (0 for ephemeral
    servers).  Sessions built from the snapshot see exactly this state no
    matter what writers do afterwards.
    """

    db: Database
    store: PreferenceStore
    db_version: int
    store_version: int
    lsn: int

    def session_for(self, user: str, strategy: str = DEFAULT_STRATEGY, **kwargs):
        """A session over the snapshot with *user*'s preferences registered."""
        return self.store.session_for(user, strategy=strategy, **kwargs)

    def digest(self) -> str:
        """sha256 of the snapshot's full logical state (see :func:`state_digest`).

        The snapshot is immutable, so the digest is computed once and cached
        on the instance — repeat calls on the serve path are O(1).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = state_digest(self.db, self.store)
            object.__setattr__(self, "_digest", cached)
        return cached


def table_digest(table) -> str:
    """sha256 of one table's logical content (schema + row multiset).

    Rows are sorted canonically, so insertion order does not matter.  On a
    **frozen** table the digest is memoized on the instance: a frozen table
    can never change again (the copy-on-write discipline forks a fresh
    object before any post-snapshot write), so every later snapshot sharing
    the object reuses the digest instead of re-canonicalizing the rows.
    """
    cached = getattr(table, "_content_digest", None)
    if cached is not None:
        return cached
    payload = canonical_json(
        {
            "columns": [[c.name, c.dtype.value] for c in table.schema.columns],
            "primary_key": list(table.schema.primary_key),
            "rows": sorted((list(row) for row in table.rows), key=canonical_json),
        }
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if table.frozen:
        table._content_digest = digest
    return digest


def table_digests(db: Database) -> dict[str, str]:
    """Per-table content digests of *db*, memoized on ``db.version``.

    Every database mutation bumps ``db.version``, so the memo is exactly as
    fresh as the data; unchanged tables additionally reuse their per-table
    memo (see :func:`table_digest`), making re-digestion after a write
    linear in the *touched* tables only.
    """
    memo = getattr(db, "_digest_memo", None)
    if memo is not None and memo[0] == db.version:
        return memo[1]
    digests = {
        table.name: table_digest(table)
        for table in sorted(db.catalog.tables(), key=lambda t: t.name)
    }
    db._digest_memo = (db.version, digests)
    return digests


def state_digest(db: Database, store: PreferenceStore) -> str:
    """One sha256 over the complete logical state of (*db*, *store*).

    Built by composing every table's content digest (:func:`table_digest`)
    with every user's profile digest
    (:meth:`~repro.query.store.PreferenceStore.profile_digest`) — both
    order-insensitive and memoized — so two states digest equal iff they
    are logically identical, and repeat digestion is no longer linear in
    database size.  Used by the recovery fixtures to compare a
    crash-recovered server against an oracle that replayed the same WAL
    prefix in memory.
    """
    # A user whose last preference was removed is logically indistinguishable
    # from an unknown user, and recovery does not recreate empty entries —
    # the digest must not hinge on that bookkeeping.
    prefs = {
        user: store.profile_digest(user)
        for user in store.users()
        if store.preferences_of(user)
    }
    payload = canonical_json(
        {"v": 2, "tables": table_digests(db), "preferences": prefs}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PreferenceServer:
    """Single-writer-path façade over a live database and preference store.

    All mutations funnel through here (under one mutex, so WAL order equals
    apply order); reads go through :meth:`snapshot`.  Construct directly
    for an ephemeral server, or use :meth:`open` for a durable one.
    """

    def __init__(
        self,
        db: Database | None = None,
        store: PreferenceStore | None = None,
        *,
        directory: str | None = None,
        wal: PreferenceWAL | None = None,
        auto_checkpoint: int | None = None,
    ):
        self.db = db if db is not None else Database()
        self.store = store if store is not None else PreferenceStore(self.db)
        self.directory = directory
        self.wal = wal
        #: Checkpoint automatically after this many WAL appends (None: manual).
        self.auto_checkpoint = auto_checkpoint
        self._appends_since_checkpoint = 0
        #: Epoch of the live checkpoint (0: none yet / legacy layout).
        self._epoch = 0
        #: Set when a WAL append failed after the in-memory mutation was
        #: applied: memory is then ahead of what recovery can reconstruct,
        #: so the server fail-stops (writes *and* snapshots refuse).
        self._poisoned: str | None = None
        # Serializes writers against each other and against snapshot capture,
        # so a snapshot can never pair a database from one instant with
        # preferences from another.
        self._mutex = Lock()
        #: The last snapshot built; handed out until the state moves on.
        self._published: ServerSnapshot | None = None
        #: ``(db.version, store.version)`` as the write holding the mutex
        #: found them, or None between writes (see :meth:`current_snapshot`).
        self._writing: tuple[int, int] | None = None
        #: Commit hooks: ``listener(op, payload)`` called after each mutation
        #: is applied and logged, still under the mutex — in commit order.
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        """Register ``listener(op, payload)`` to observe committed mutations.

        Called under the server mutex immediately after the mutation is
        applied in memory and appended to the WAL, so listeners observe
        mutations in exactly commit (= WAL) order.  The payload carries live
        objects (``pref.add`` passes the preference itself, not its
        serialization); listeners must be fast and must not call back into
        the server's write path.  This is the change feed the result
        cache's invalidation (:mod:`repro.cache`) hangs off.
        """
        self._listeners.append(listener)

    def _notify(self, op: str, payload: dict) -> None:
        for listener in self._listeners:
            listener(op, payload)

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        initial: Database | None = None,
        sync: bool = True,
        auto_checkpoint: int | None = None,
    ) -> tuple["PreferenceServer", WalReplay]:
        """Open (or create) the durable server state under *directory*.

        Recovery order: load the checkpoint (or adopt *initial* / an empty
        database when none exists yet), replay the WAL's surviving prefix on
        top, truncate any torn tail.  Returns the server and the
        :class:`~repro.serve.wal.WalReplay` describing what recovery found.
        A brand-new directory gets an immediate baseline checkpoint so a
        later recovery always has a base to replay onto.
        """
        vfs = current_vfs()
        vfs.makedirs(directory)
        checkpoint_dir, epoch = _current_checkpoint(directory, vfs)
        if checkpoint_dir is not None:
            db = load_database(checkpoint_dir)
        else:
            db = initial if initial is not None else Database()
        if db.is_snapshot:
            raise ReproError("cannot serve from a snapshot database")
        store = PreferenceStore(db)
        checkpoint_lsn = 0
        if checkpoint_dir is not None:
            prefs_path = os.path.join(checkpoint_dir, PREFS_FILE)
            if vfs.exists(prefs_path):
                checkpoint_lsn = _load_preferences(prefs_path, store)
        wal, replay = PreferenceWAL.open(
            os.path.join(directory, WAL_FILE), sync=sync
        )
        if checkpoint_lsn > wal.lsn:
            # The log was reset after the checkpoint: numbering resumes
            # after the last record the checkpoint reflects.
            wal = PreferenceWAL(wal.path, sync=sync, start_lsn=checkpoint_lsn)
        server = cls(
            db,
            store,
            directory=directory,
            wal=wal,
            auto_checkpoint=auto_checkpoint,
        )
        server._epoch = epoch
        for record in replay.records:
            server._apply_replay(record.op, record.payload)
        if checkpoint_dir is None:
            server.checkpoint()
        return server, replay

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> ServerSnapshot:
        """An immutable, consistent view of the entire server state.

        Profiles and data change far less often than they are read, so one
        snapshot serves every read until the state moves on: the published
        one comes back without the mutex while :meth:`current_snapshot`
        vouches for it, and a stale one is rebuilt under the mutex.

        Refuses (:exc:`~repro.errors.WALPoisoned`) on a poisoned server: the
        in-memory state then contains a mutation that was never acknowledged
        as durable, so handing it out would let readers observe data a
        recovery cannot reproduce.
        """
        published = self.current_snapshot()
        if published is not None:
            return published
        with self._mutex:
            self._check_healthy()
            published = self.current_snapshot()  # another reader rebuilt it
            if published is None:
                db_snap = self.db.snapshot()
                store_snap = self.store.snapshot(db_snap)
                published = ServerSnapshot(
                    db=db_snap,
                    store=store_snap,
                    db_version=db_snap.version,
                    store_version=store_snap.version,
                    lsn=self.wal.lsn if self.wal is not None else 0,
                )
                self._published = published
            return published

    def current_snapshot(self) -> ServerSnapshot | None:
        """The published snapshot while it is current, else None; never blocks.

        Current means the server is not poisoned and the live versions are
        the ones the snapshot captured — every mutation, including a direct
        ``server.db`` write around the write methods, bumps a version.  A
        write that started from exactly those versions and has not returned
        yet (it may sit in the WAL fsync) leaves the snapshot current too:
        that write is not acknowledged, so a read may order before it.
        """
        published = self._published
        if published is None or self._poisoned is not None:
            return None
        captured = (published.db_version, published.store_version)
        if captured == (self.db.version, self.store.version) or captured == self._writing:
            return published
        return None

    # -- the write path ----------------------------------------------------------

    @contextmanager
    def _committing(self):
        """The write critical section: mutex, health check, in-flight marker."""
        with self._mutex:
            self._check_healthy()
            self._writing = (self.db.version, self.store.version)
            try:
                yield
            finally:
                self._writing = None

    def add_preference(self, user: str, preference) -> None:
        """Store a preference for *user*, durably (WAL append = commit)."""
        # Serialize before applying: a non-loggable preference (callable
        # scoring, predicate context) must be rejected before it reaches
        # either the store or the log.
        payload = (
            {"user": user, "pref": preference_to_dict(preference)}
            if self.wal is not None
            else None
        )
        with self._committing():
            self.store.add(user, preference)
            self._log("pref.add", payload)
            self._notify("pref.add", {"user": user, "preference": preference})

    def remove_preference(self, user: str, name: str) -> bool:
        with self._committing():
            removed = self.store.remove(user, name)
            if removed:
                self._log("pref.remove", {"user": user, "name": name})
                self._notify("pref.remove", {"user": user, "name": name})
            return removed

    def clear_preferences(self, user: str) -> int:
        with self._committing():
            dropped = self.store.clear(user)
            if dropped:
                self._log("pref.clear", {"user": user})
                self._notify("pref.clear", {"user": user, "dropped": dropped})
            return dropped

    def insert(self, table: str, values) -> None:
        """Insert one row through the copy-on-write write path, durably."""
        with self._committing():
            self.db.insert(table, values)
            self._log("row.insert", {"table": table, "values": list(values)})
            self._notify("row.insert", {"table": table, "values": list(values)})

    def _check_healthy(self) -> None:
        if self._poisoned is not None:
            path = self.wal.path if self.wal is not None else None
            raise WALPoisoned(path, self._poisoned)

    def _log(self, op: str, payload: dict | None) -> None:
        if self.wal is None:
            return
        try:
            self.wal.append(op, payload if payload is not None else {})
        except (ResilienceError, OSError) as err:
            # The in-memory mutation is already applied but was never made
            # durable: fail-stop the whole server, not just the log, so no
            # snapshot or later write can observe the divergent state.
            self._poisoned = str(err)
            raise
        self._appends_since_checkpoint += 1
        if (
            self.auto_checkpoint is not None
            and self._appends_since_checkpoint >= self.auto_checkpoint
        ):
            self._checkpoint_locked()

    # -- recovery ----------------------------------------------------------------

    def _apply_replay(self, op: str, payload: dict) -> None:
        """Apply one recovered WAL record, idempotently.

        A crash between "checkpoint written" and "WAL reset" leaves records
        whose effects the checkpoint already holds; redo must therefore
        tolerate already-applied mutations (the duplicate-name / missing-name
        cases below) rather than fail recovery on them.
        """
        if op == "pref.add":
            try:
                self.store.add(payload["user"], preference_from_dict(payload["pref"]))
            except PreferenceError:
                pass  # already present: record predates the checkpoint
        elif op == "pref.remove":
            self.store.remove(payload["user"], payload["name"])
        elif op == "pref.clear":
            self.store.clear(payload["user"])
        elif op == "row.insert":
            self._replay_row_insert(payload)
        else:
            raise DataCorruption(f"write-ahead log carries unknown operation {op!r}")

    def _replay_row_insert(self, payload: dict) -> None:
        """Redo one logged row insert, tolerating *only* checkpoint overlap.

        The sole benign failure is a duplicate primary key whose resident
        row is byte-identical to the logged one — the record predates the
        checkpoint.  Everything else (unknown table, schema violation,
        conflicting content under the same key) means the log disagrees
        with the checkpoint it is being replayed onto, which no crash can
        produce: that is corruption, not redo, and silently dropping the
        row would lose acknowledged data.
        """
        table_name = payload.get("table")
        values = payload.get("values")
        try:
            self.db.insert(table_name, values)
            return
        except CatalogError as err:
            if "duplicate primary key" not in str(err):
                raise DataCorruption(
                    f"replayed row.insert does not fit the checkpoint: {err}"
                ) from err
        except ReproError as err:
            raise DataCorruption(
                f"replayed row.insert violates the schema: {err}"
            ) from err
        # Duplicate key: benign only if it is the *same* row.
        table = self.db.table(table_name)
        row = table._coerce(values)
        existing = table.get(table.primary_key_of(row))
        if existing != row:
            raise DataCorruption(
                f"replayed row.insert conflicts with checkpointed row "
                f"{existing!r} in table {table.name} (logged {row!r})"
            )

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush the full state to a fresh checkpoint and reset the WAL.

        Write order is the crash contract: (1) a brand-new versioned
        checkpoint directory (every file atomically written and fsync'd, no
        durable file overwritten), (2) the ``CURRENT`` pointer flip, (3) the
        WAL reset, (4) garbage collection of superseded checkpoints.  A
        crash before (2) leaves the old checkpoint + full WAL; between (2)
        and (3) the new checkpoint + full WAL, which the idempotent redo in
        :meth:`_apply_replay` absorbs; after (3) the new checkpoint + empty
        WAL.  Every cut is a recoverable state.
        """
        if self.directory is None:
            raise ReproError("ephemeral server has nowhere to checkpoint")
        with self._mutex:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        epoch = self._epoch + 1
        name = f"checkpoint-{epoch:08d}"
        target = os.path.join(self.directory, name)
        save_database(self.db, target)
        _save_preferences(
            os.path.join(target, PREFS_FILE),
            self.store,
            self.wal.lsn if self.wal is not None else 0,
        )
        # The commit point: recovery reads this checkpoint from now on.
        _atomic_write(os.path.join(self.directory, CURRENT_FILE), name + "\n")
        self._epoch = epoch
        if self.wal is not None:
            self.wal.reset()
        self._appends_since_checkpoint = 0
        self._collect_stale_checkpoints(keep=name)

    def _collect_stale_checkpoints(self, keep: str) -> None:
        """Best-effort removal of checkpoints the pointer no longer names.

        Runs only after the pointer flip is durable, so a crash mid-removal
        merely leaves an unreferenced directory for the next pass.
        """
        try:
            entries = os.listdir(self.directory)
        except OSError:  # pragma: no cover - directory vanished under us
            return
        for entry in entries:
            if entry == keep:
                continue
            if _CHECKPOINT_NAME.match(entry):
                shutil.rmtree(os.path.join(self.directory, entry), ignore_errors=True)

    # -- introspection -----------------------------------------------------------

    def state_digest(self) -> str:
        """sha256 of the live logical state (consistent: captured via snapshot)."""
        return self.snapshot().digest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.directory if self.directory is not None else "ephemeral"
        return f"PreferenceServer({where}, lsn={self.wal.lsn if self.wal else 0})"


# ---------------------------------------------------------------------------
# Preference checkpoint file
# ---------------------------------------------------------------------------


def _save_preferences(path: str, store: PreferenceStore, lsn: int) -> None:
    users = {
        user: [preference_to_dict(stored) for stored in store.preferences_of(user)]
        for user in store.users()
    }
    body = canonical_json(users)
    document = {
        "format": 1,
        "checksum": "sha256:" + hashlib.sha256(body.encode("utf-8")).hexdigest(),
        "lsn": lsn,
        "users": users,
    }
    _atomic_write(path, json.dumps(document, indent=2, sort_keys=True))


def _load_preferences(path: str, store: PreferenceStore) -> int:
    """Load a preference checkpoint into *store*; returns the LSN it reflects."""
    with current_vfs().open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except ValueError as err:
            raise DataCorruption(
                f"preference checkpoint is not valid JSON: {err}", path=path
            ) from err
    users = document.get("users")
    if not isinstance(users, dict):
        raise DataCorruption("preference checkpoint lacks a users mapping", path=path)
    expected = document.get("checksum")
    actual = "sha256:" + hashlib.sha256(
        canonical_json(users).encode("utf-8")
    ).hexdigest()
    if expected is not None and expected != actual:
        raise DataCorruption(
            f"preference checkpoint checksum mismatch (expected {expected})",
            path=path,
        )
    lsn = document.get("lsn", 0)
    if not isinstance(lsn, int) or lsn < 0:
        raise DataCorruption(
            f"preference checkpoint has a malformed lsn {lsn!r}", path=path
        )
    for user, stored_list in users.items():
        store.add_all(user, [preference_from_dict(data) for data in stored_list])
    return lsn
