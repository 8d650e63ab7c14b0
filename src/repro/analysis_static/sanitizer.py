"""Opt-in concurrency sanitizer: lock order, COW discipline, WAL protocol.

The sanitizer is the runtime member of the static-analysis family: it shares
the SANxxx slice of the diagnostics catalog and turns the concurrency
invariants the docs promise into machine-checked facts.  Hook sites live in
the structures the serving layer leans on —

* :class:`~repro.serve.rwlock.RWLock` acquisition/release builds a global
  **lock-order graph** (lockdep-style): a cycle means two code paths take
  the same locks in opposite orders and can deadlock under the right
  interleaving even if this run got lucky (``SAN101``); same-thread
  re-acquisition of the deliberately non-reentrant lock is reported *before*
  it deadlocks (``SAN102``), and a release by a non-holder is ``SAN103``.
* :meth:`Database.snapshot <repro.engine.database.Database.snapshot>`
  registers every captured table and index object; any later in-place write
  to one of those exact objects — which the copy-on-write fork discipline
  must never allow — is ``SAN201`` (table) / ``SAN202`` (index).
* :class:`~repro.serve.wal.PreferenceWAL` appends must assign contiguous
  LSNs (``SAN301``), must not be acknowledged before the flush — and, in
  ``sync`` mode, the fsync — happened (``SAN302``), and must be mutually
  exclusive (``SAN303``).

Like the tracer and guard, the default is a no-op behind one ``enabled``
attribute check (:data:`NULL_SANITIZER`), so instrumentation costs nothing
when off.  Unlike those two the active sanitizer is a **process-global**,
not a ``ContextVar``: lock-order and snapshot-sharing facts span threads by
nature, so every thread must feed the same instance.

Enable it with ``REPRO_SANITIZE=1`` in the environment (picked up at import
time — this is how CI runs the stress and chaos suites as race detectors),
with the ``sanitize=`` kwarg of the chaos runners, or explicitly::

    with use_sanitizer() as sanitizer:
        ...  # run the concurrent workload
    assert not sanitizer.findings

The sanitizer deliberately keeps strong references to every lock, table and
index it has seen: findings are keyed by object identity, and letting an
``id()`` be recycled by the allocator would alias unrelated objects.  That
makes it a debugging/CI tool, not a production default.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from .diagnostics import Diagnostic, make_diagnostic


class Sanitizer:
    """Collects SANxxx findings from the instrumentation hooks.

    All hook methods are thread-safe and never raise: a sanitizer that
    could crash the code under test would shadow the very bugs it exists
    to report.  ``findings`` is append-only and deduplicated, so a hot
    loop hitting the same violation reports it once.
    """

    enabled = True

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.findings: list[Diagnostic] = []
        self._seen: set[tuple] = set()
        # Lock-order state: per-thread held stacks and the global edge set.
        self._held: dict[int, list[int]] = {}
        self._edges: dict[int, set[int]] = {}
        self._labels: dict[int, str] = {}
        self._pins: dict[int, object] = {}  # identity keys must stay unique
        # COW state: objects captured by at least one snapshot.
        self._captured_tables: dict[int, str] = {}
        self._captured_indexes: dict[int, str] = {}
        # WAL state: id(wal) -> {"last", "thread", "flushed", "synced"}.
        self._wal: dict[int, dict] = {}

    # -- reporting -------------------------------------------------------------

    def _report(self, code: str, key: tuple, message: str, where: str) -> None:
        if (code, key) in self._seen:
            return
        self._seen.add((code, key))
        self.findings.append(make_diagnostic(code, message, where))

    def reset(self) -> None:
        """Drop all findings and tracked state (fresh run, same instance)."""
        with self._mutex:
            self.findings = []
            self._seen = set()
            self._held = {}
            self._edges = {}
            self._labels = {}
            self._pins = {}
            self._captured_tables = {}
            self._captured_indexes = {}
            self._wal = {}

    def _pin(self, obj: object, label: str) -> int:
        key = id(obj)
        if key not in self._pins:
            self._pins[key] = obj
            self._labels[key] = f"{label}#{len(self._labels)}"
        return key

    # -- lock order (SAN1xx) -----------------------------------------------------

    def lock_acquiring(self, lock: object, mode: str, name: str = "lock") -> None:
        """Called *before* blocking on *lock* — the only point where a
        self-deadlock (re-entrant acquisition) is still observable."""
        tid = threading.get_ident()
        with self._mutex:
            key = self._pin(lock, name)
            label = self._labels[key]
            held = self._held.get(tid, [])
            if key in held:
                self._report(
                    "SAN102",
                    (key, tid),
                    f"thread re-acquires non-reentrant {label} ({mode}) it already "
                    "holds; writer preference turns this into a self-deadlock",
                    label,
                )
                return
            for held_key in held:
                edges = self._edges.setdefault(held_key, set())
                if key in edges:
                    continue
                edges.add(key)
                cycle = self._find_cycle(key, held_key)
                if cycle is not None:
                    chain = " -> ".join(self._labels[k] for k in cycle)
                    self._report(
                        "SAN101",
                        frozenset(cycle),
                        f"lock-order cycle {chain}: another interleaving of these "
                        "acquisition orders deadlocks",
                        self._labels[held_key],
                    )

    def lock_acquired(self, lock: object, mode: str) -> None:
        tid = threading.get_ident()
        with self._mutex:
            self._held.setdefault(tid, []).append(id(lock))

    def lock_released(self, lock: object, mode: str) -> None:
        tid = threading.get_ident()
        with self._mutex:
            key = id(lock)
            held = self._held.get(tid, [])
            if key in held:
                # Remove the innermost hold (read locks may legally unlock
                # in any order; the stack is only advisory).
                held.reverse()
                held.remove(key)
                held.reverse()
                return
            label = self._labels.get(key, f"{type(lock).__name__}@{key:#x}")
            self._report(
                "SAN103",
                (key, tid),
                f"thread releases {label} ({mode}) without holding it",
                label,
            )

    def _find_cycle(self, start: int, target: int) -> list[int] | None:
        """A path ``start ->* target`` in the edge graph (closing a cycle)."""
        stack = [(start, [start])]
        visited = {start}
        while stack:
            node, path = stack.pop()
            if node == target:
                return path + [start]
            for succ in self._edges.get(node, ()):
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    # -- copy-on-write snapshots (SAN2xx) ----------------------------------------

    def snapshot_captured(self, tables, indexes) -> None:
        """Register the exact table/index objects a snapshot now shares."""
        with self._mutex:
            for table in tables:
                key = self._pin(table, "table")
                self._captured_tables[key] = getattr(table, "name", "?")
            for index in indexes:
                key = self._pin(index, "index")
                self._captured_indexes[key] = getattr(index, "name", "?")

    def table_written(self, table: object) -> None:
        with self._mutex:
            name = self._captured_tables.get(id(table))
            if name is None:
                return
            self._report(
                "SAN201",
                ("table", id(table)),
                f"write to table {name!r} which a snapshot captured; the "
                "copy-on-write discipline requires forking it first",
                f"table:{name}",
            )

    def index_mutated(self, index: object) -> None:
        with self._mutex:
            name = self._captured_indexes.get(id(index))
            if name is None:
                return
            self._report(
                "SAN202",
                ("index", id(index)),
                f"in-place mutation of snapshot-shared index {name!r}; "
                "replace_table must rebuild fresh live-side indexes instead",
                f"index:{name}",
            )

    # -- WAL durability protocol (SAN3xx) ----------------------------------------

    def _wal_state(self, wal: object) -> dict:
        key = self._pin(wal, "wal")
        return self._wal.setdefault(
            key, {"last": None, "thread": None, "flushed": False, "synced": False}
        )

    def wal_append_begin(self, wal: object, lsn: int) -> None:
        tid = threading.get_ident()
        with self._mutex:
            state = self._wal_state(wal)
            label = self._labels[id(wal)]
            if state["thread"] is not None and state["thread"] != tid:
                self._report(
                    "SAN303",
                    (id(wal), "overlap"),
                    f"two threads are appending to {label} at once; records "
                    "can interleave mid-line",
                    label,
                )
            state["thread"] = tid
            state["flushed"] = False
            state["synced"] = False
            if state["last"] is not None and lsn != state["last"] + 1:
                self._report(
                    "SAN301",
                    (id(wal), state["last"], lsn),
                    f"append to {label} assigns LSN {lsn} after {state['last']}; "
                    "recovery requires contiguous LSNs",
                    label,
                )

    def wal_flushed(self, wal: object) -> None:
        with self._mutex:
            self._wal_state(wal)["flushed"] = True

    def wal_synced(self, wal: object) -> None:
        with self._mutex:
            self._wal_state(wal)["synced"] = True

    def wal_append_end(self, wal: object, lsn: int, sync: bool) -> None:
        with self._mutex:
            state = self._wal_state(wal)
            label = self._labels[id(wal)]
            if not state["flushed"]:
                self._report(
                    "SAN302",
                    (id(wal), lsn, "flush"),
                    f"append of LSN {lsn} to {label} acknowledged without a "
                    "flush; a crash now loses an applied mutation",
                    label,
                )
            elif sync and not state["synced"]:
                self._report(
                    "SAN302",
                    (id(wal), lsn, "fsync"),
                    f"append of LSN {lsn} to sync-mode {label} acknowledged "
                    "without fsync; durability is promised but not delivered",
                    label,
                )
            state["last"] = lsn
            state["thread"] = None

    def wal_reset(self, wal: object) -> None:
        """A checkpoint truncated the log; LSN assignment continues."""
        with self._mutex:
            state = self._wal_state(wal)
            state["thread"] = None

    # -- summaries ---------------------------------------------------------------

    def describe(self) -> str:
        if not self.findings:
            return "sanitizer: no findings"
        lines = [f"sanitizer: {len(self.findings)} finding(s)"]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


class _NullSanitizer:
    """The always-installed default: no checks, near-zero cost."""

    __slots__ = ()

    enabled = False
    findings: list = []

    def lock_acquiring(self, lock, mode, name="lock") -> None:
        pass

    def lock_acquired(self, lock, mode) -> None:
        pass

    def lock_released(self, lock, mode) -> None:
        pass

    def snapshot_captured(self, tables, indexes) -> None:
        pass

    def table_written(self, table) -> None:
        pass

    def index_mutated(self, index) -> None:
        pass

    def wal_append_begin(self, wal, lsn) -> None:
        pass

    def wal_flushed(self, wal) -> None:
        pass

    def wal_synced(self, wal) -> None:
        pass

    def wal_append_end(self, wal, lsn, sync) -> None:
        pass

    def wal_reset(self, wal) -> None:
        pass

    def reset(self) -> None:
        pass

    def describe(self) -> str:
        return "sanitizer: disabled"


NULL_SANITIZER = _NullSanitizer()

#: The process-global active sanitizer (NOT a ContextVar — see module doc).
_ACTIVE: "Sanitizer | _NullSanitizer" = NULL_SANITIZER
_SWAP = threading.Lock()


def current_sanitizer() -> "Sanitizer | _NullSanitizer":
    """The active sanitizer; :data:`NULL_SANITIZER` unless one is installed."""
    return _ACTIVE


def install_sanitizer(sanitizer: Sanitizer | None = None) -> Sanitizer:
    """Install *sanitizer* (a fresh one by default) process-wide."""
    global _ACTIVE
    with _SWAP:
        active = sanitizer if sanitizer is not None else Sanitizer()
        _ACTIVE = active
        return active


def uninstall_sanitizer() -> None:
    """Return to the no-op default."""
    global _ACTIVE
    with _SWAP:
        _ACTIVE = NULL_SANITIZER


@contextmanager
def use_sanitizer(sanitizer: Sanitizer | None = None):
    """Install a sanitizer for the enclosed block, restoring the old one.

    The swap is process-global: concurrent threads inside the block feed
    the same instance (that is the point), so nesting different sanitizers
    from concurrent threads is not meaningful.
    """
    global _ACTIVE
    with _SWAP:
        previous = _ACTIVE
        active = sanitizer if sanitizer is not None else Sanitizer()
        _ACTIVE = active
    try:
        yield active
    finally:
        with _SWAP:
            _ACTIVE = previous


def env_sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests the sanitizer (1/true/yes/on)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


if env_sanitize_enabled():  # pragma: no cover - exercised by the CI sanitize job
    install_sanitizer()
