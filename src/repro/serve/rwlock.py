"""A writer-preference readers/writer lock for the serving layer.

Snapshots and catalog reads take the shared side; DDL/DML and snapshot
creation take the exclusive side.  Writer preference keeps a steady stream
of readers from starving preference updates under load: once a writer is
waiting, new readers queue behind it.

A thread holds at most one ``RWLock`` at a time.  Asking for a second one,
or for the same one again, raises :exc:`~repro.errors.LockNestingError` at
once instead of blocking: with writer preference a re-entrant read waits
behind a queued writer that waits on it, and two locks taken in opposite
orders can deadlock.  The code these locks guard never nests them — a
locked public method only calls unlocked internals — so the rule turns a
possible hang into a typed error on every run.  This module depends only
on :mod:`repro.errors`, so :mod:`repro.engine` and :mod:`repro.query` can
import it without cycles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..errors import LockNestingError

#: ``_HELD.lock`` is the ``RWLock`` this thread holds, if any.
_HELD = threading.local()


def _nested(lock: "RWLock", held: "RWLock", mode: str) -> LockNestingError:
    what = "again" if held is lock else f"while holding {held.name}"
    return LockNestingError(f"thread asks for {lock.name} ({mode}) {what}")


def _stray(lock: "RWLock", mode: str) -> LockNestingError:
    return LockNestingError(f"thread releases {lock.name} ({mode}) it does not hold")


class RWLock:
    """Shared/exclusive lock with writer preference.

    Use the context-manager helpers::

        with lock.read_locked():
            ...  # any number of concurrent readers
        with lock.write_locked():
            ...  # exactly one writer, no readers

    Every acquire raises :exc:`~repro.errors.LockNestingError` before it
    can block when this thread already holds an ``RWLock``; every release
    raises it when this thread does not hold this one.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting", "name")

    def __init__(self, name: str = "rwlock") -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        #: Role label for error messages ("db.rwlock", ...).
        self.name = name

    # -- shared side -----------------------------------------------------------

    def acquire_read(self) -> None:
        held = getattr(_HELD, "lock", None)
        if held is not None:
            raise _nested(self, held, "read")
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        _HELD.lock = self

    def release_read(self) -> None:
        if getattr(_HELD, "lock", None) is not self:
            raise _stray(self, "read")
        _HELD.lock = None
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- exclusive side ----------------------------------------------------------

    def acquire_write(self) -> None:
        held = getattr(_HELD, "lock", None)
        if held is not None:
            raise _nested(self, held, "write")
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        _HELD.lock = self

    def release_write(self) -> None:
        if getattr(_HELD, "lock", None) is not self:
            raise _stray(self, "write")
        _HELD.lock = None
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    # -- context managers --------------------------------------------------------

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RWLock(readers={self._readers}, writer={self._writer}, "
            f"waiting={self._writers_waiting})"
        )
