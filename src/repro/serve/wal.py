"""Append-only, fsync'd, checksummed write-ahead log for preference state.

Layered on the format-2 persistence discipline of :mod:`repro.engine.persist`
(atomic checkpoint files, content checksums, typed
:exc:`~repro.errors.DataCorruption`), the WAL makes *mutations between
checkpoints* durable: every preference or table write is appended and
fsync'd before it is applied to the in-memory state, ARIES-style, so a
crash at any instant loses at most the one record that was mid-write.

Record format — one line per record::

    <sha256[:16] of the JSON text> <canonical JSON>\\n

with the JSON carrying ``{"lsn": n, "op": "...", ...payload}``.  Canonical
JSON (sorted keys, compact) makes the checksum deterministic.  LSNs are
assigned contiguously, so recovery can verify nothing vanished mid-log.

Recovery discipline (:func:`scan_wal`):

* A damaged **final** record (missing newline, short line, checksum or JSON
  failure) is a **torn tail** — the expected artifact of a crash mid-append.
  It is dropped, reported in :attr:`WalReplay.torn_tail`, and
  :meth:`PreferenceWAL.open` physically truncates it so later appends start
  from a clean prefix.
* Anything wrong **before** the final record — a damaged middle line, an
  LSN gap or regression — cannot be produced by a crash and raises a typed
  :exc:`~repro.errors.DataCorruption` naming the exact file and line.

Failure discipline (fsyncgate semantics): when an append's write or fsync
fails, the on-disk tail is unknowable *and* the kernel may already have
dropped the dirty pages it failed to persist — so the log **fail-stops**.
The handle is closed and poisoned, the failed record is never acknowledged
(the LSN does not advance), and every later :meth:`PreferenceWAL.append`
or :meth:`~PreferenceWAL.reset` raises :exc:`~repro.errors.WALPoisoned`
instead of retrying on pages that may never reach disk.  Recovery is a
fresh :meth:`PreferenceWAL.open`, which re-scans the file and truncates
whatever the failed append left behind as a torn tail.

All file I/O goes through the ambient VFS (:mod:`repro.resilience.vfs`),
so the crash-torture harness can inject storage failures at every byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from threading import Lock

from ..errors import DataCorruption, DurabilityError, PowerCut, WALPoisoned
from ..resilience.vfs import current_vfs
from .codec import canonical_json

WAL_FILE = "preferences.wal"

#: Operations a WAL may carry; the server owns their application semantics.
OPS = (
    "pref.add",
    "pref.remove",
    "pref.clear",
    "row.insert",
)


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class WalRecord:
    """One durable mutation: ``lsn`` orders it, ``op`` names it."""

    lsn: int
    op: str
    payload: dict

    def encode(self) -> str:
        body = canonical_json({"lsn": self.lsn, "op": self.op, **self.payload})
        return f"{_checksum(body)} {body}\n"


@dataclass
class WalReplay:
    """Outcome of scanning a WAL file: the surviving records plus verdicts."""

    records: list[WalRecord] = field(default_factory=list)
    #: Byte offset at which a torn tail starts, ``None`` for a clean log.
    torn_at: int | None = None
    #: Human-readable description of the torn tail, when one was found.
    torn_tail: str | None = None

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0

    @property
    def clean(self) -> bool:
        return self.torn_at is None


def _parse_line(line: str):
    """``(record, problem)`` — exactly one of the two is ``None``."""
    separator = line.find(" ")
    if separator != 16:
        return None, "record has no 16-hex checksum prefix"
    checksum, body = line[:separator], line[separator + 1 :]
    if _checksum(body) != checksum:
        return None, f"checksum mismatch (expected {checksum})"
    try:
        data = json.loads(body)
    except ValueError as err:
        return None, f"record is not valid JSON ({err})"
    if not isinstance(data, dict) or "lsn" not in data or "op" not in data:
        return None, "record lacks lsn/op fields"
    lsn = data.pop("lsn")
    op = data.pop("op")
    if not isinstance(lsn, int) or not isinstance(op, str):
        return None, "record has malformed lsn/op fields"
    return WalRecord(lsn, op, data), None


def scan_wal(path: str) -> WalReplay:
    """Read every intact record of *path*, applying the recovery discipline.

    Returns the surviving prefix; only damage confined to the very end of
    the file is tolerated (and reported) as a torn tail.  A missing file is
    an empty, clean log — the state after a checkpoint reset.
    """
    replay = WalReplay()
    vfs = current_vfs()
    if not vfs.exists(path):
        return replay
    with vfs.open(path, "rb") as handle:
        raw = handle.read()
    offset = 0
    previous_lsn: int | None = None
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            # No terminating newline: the classic torn tail of a crashed append.
            replay.torn_at = offset
            replay.torn_tail = "unterminated final record (crash mid-append)"
            return replay
        line = raw[offset:newline].decode("utf-8", errors="replace")
        record, problem = _parse_line(line)
        if record is not None and previous_lsn is not None and record.lsn != previous_lsn + 1:
            record, problem = None, (
                f"LSN discontinuity: {previous_lsn} followed by {record.lsn}"
            )
            # A gap cannot come from truncation-at-an-offset; always fatal.
            raise DataCorruption(
                f"write-ahead log is corrupt: {problem}",
                path=path,
                line=len(replay.records) + 1,
            )
        if record is None:
            if newline == len(raw) - 1:
                # Damaged but final line: torn tail, drop it.
                replay.torn_at = offset
                replay.torn_tail = problem
                return replay
            raise DataCorruption(
                f"write-ahead log is corrupt mid-file: {problem}",
                path=path,
                line=len(replay.records) + 1,
            )
        replay.records.append(record)
        previous_lsn = record.lsn
        offset = newline + 1
    return replay


class PreferenceWAL:
    """The append side of the log: thread-safe, fsync'd, checksummed.

    Appends are serialized by one lock, so concurrent callers get
    contiguous LSNs and whole record lines.  Every append is flushed to the
    OS before it returns; ``sync=True`` (the default, and what every server,
    harness and benchmark passes) also fsyncs it.  ``sync=False`` skips
    only the fsync; only tests pass it, to exercise the record format and
    the :meth:`sync_to_disk` drain.
    """

    def __init__(self, path: str, *, sync: bool = True, start_lsn: int = 0):
        self.path = path
        self.sync = sync
        self._lock = Lock()
        self._lsn = start_lsn
        self._handle = None
        self._vfs = None
        #: Reason the log fail-stopped, or ``None`` while healthy.
        self._poisoned: str | None = None

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, path: str, *, sync: bool = True) -> tuple["PreferenceWAL", WalReplay]:
        """Scan *path*, truncate any torn tail, and return an appendable WAL.

        The returned :class:`WalReplay` holds the surviving records for the
        caller to apply; the WAL continues LSN assignment after them.
        """
        replay = scan_wal(path)
        if replay.torn_at is not None:
            vfs = current_vfs()
            with vfs.open(path, "rb+") as handle:
                handle.truncate(replay.torn_at)
                vfs.fsync(handle)
        wal = cls(path, sync=sync, start_lsn=replay.last_lsn)
        return wal, replay

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._vfs = None

    # -- appending -------------------------------------------------------------

    @property
    def lsn(self) -> int:
        """The LSN of the most recently appended (or recovered) record."""
        return self._lsn

    @property
    def poisoned(self) -> str | None:
        """Why the log fail-stopped, or ``None`` while it accepts appends."""
        return self._poisoned

    def append(self, op: str, payload: dict) -> WalRecord:
        """Durably append one record; returns it once it is on disk.

        The record is flushed — and, with ``sync``, fsync'd — before this
        method returns, so callers may apply the mutation to in-memory
        state knowing recovery will replay it.  A failed write or fsync
        poisons the log (fail-stop): the record is *not* acknowledged, the
        LSN does not advance, and every later append raises
        :exc:`~repro.errors.WALPoisoned` until the log is reopened.
        """
        with self._lock:
            if self._poisoned is not None:
                raise WALPoisoned(self.path, self._poisoned)
            record = WalRecord(self._lsn + 1, op, dict(payload))
            try:
                handle = self._ensure_handle()
                handle.write(record.encode())
                handle.flush()
                if self.sync:
                    self._fsync(handle)
            except PowerCut:
                self._poison("simulated power failure mid-append")
                raise
            except OSError as err:
                # Never retry on the same handle: a failed fsync may have
                # dropped the very pages a retry would claim to persist.
                self._poison(str(err))
                raise DurabilityError("append", self.path, str(err)) from err
            self._lsn = record.lsn
            return record

    def sync_to_disk(self) -> None:
        """Flush and fsync whatever is buffered (no-op when closed/poisoned).

        ``sync=True`` logs are durable after every append already; this is
        the graceful-drain hook for ``sync=False`` logs — the network front
        end calls it before exit so every acknowledged append is on disk
        even when per-record fsync was traded away.  A failure here poisons
        the log exactly like a failed append: the pages may be gone.
        """
        with self._lock:
            if self._handle is None or self._poisoned is not None:
                return
            try:
                self._handle.flush()
                self._fsync(self._handle)
            except PowerCut:
                self._poison("simulated power failure during drain sync")
                raise
            except OSError as err:
                self._poison(str(err))
                raise DurabilityError("fsync", self.path, str(err)) from err

    def _poison(self, reason: str) -> None:
        """Fail-stop: close the tainted handle and refuse all later appends."""
        self._poisoned = reason
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close after I/O error
                pass
            self._handle = None
            self._vfs = None

    def _fsync(self, handle) -> None:
        """The durability point of one sync-mode append."""
        (self._vfs or current_vfs()).fsync(handle)

    def _ensure_handle(self):
        if self._handle is None:
            self._vfs = current_vfs()
            directory = os.path.dirname(os.path.abspath(self.path))
            self._vfs.makedirs(directory)
            self._handle = self._vfs.open(self.path, "a", encoding="utf-8")
        return self._handle

    # -- checkpoint support ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh, empty log (called after a successful checkpoint).

        The old file is atomically replaced by an empty one, so a crash
        during reset leaves either the full old log (checkpoint already
        durable → replay is idempotent) or the clean new one.
        """
        with self._lock:
            if self._poisoned is not None:
                raise WALPoisoned(self.path, self._poisoned)
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._vfs = None
            vfs = current_vfs()
            tmp_path = f"{self.path}.{os.getpid()}.reset.tmp"
            try:
                with vfs.open(tmp_path, "w", encoding="utf-8") as handle:
                    handle.flush()
                    vfs.fsync(handle)
                vfs.replace(tmp_path, self.path)
                # Make the rename itself durable before any later append is
                # acknowledged against the fresh log.
                vfs.fsync_dir(os.path.dirname(os.path.abspath(self.path)) or ".")
            except PowerCut:
                self._poison("simulated power failure mid-reset")
                raise
            except OSError as err:
                try:
                    vfs.remove(tmp_path)
                except OSError:
                    pass
                self._poison(str(err))
                raise DurabilityError("reset", self.path, str(err)) from err

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreferenceWAL({self.path!r}, lsn={self._lsn}, sync={self.sync})"
