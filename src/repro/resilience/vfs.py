"""Pluggable virtual file system for durability I/O, with fault injection.

Every byte the durability layers put on disk — checkpoint files written by
:mod:`repro.engine.persist`, WAL appends in :mod:`repro.serve.wal`, the
preference checkpoint in :mod:`repro.serve.server` — flows through the
ambient VFS installed here.  Like the guard and fault-plan ambients, the
default is a zero-overhead pass-through (:class:`RealVFS`,
one ContextVar read per durability call); tests install a seeded
:class:`FaultyVFS` with :func:`use_vfs` to make adversarial storage
testable (lint rule LN305 flags durability code that bypasses the VFS).

:class:`FaultyVFS` does two independent jobs:

* **Deterministic fault injection.**  Each faultable primitive — a file
  ``write``, an ``fsync``, a ``replace`` (rename), a directory fsync —
  consumes one *step*.  A :class:`VfsFault` script names the step at which
  to inject and the fault kind; the same script always fails at the same
  instant, so every crash point of a workload can be enumerated (probe
  with no script, then sweep ``step`` over ``range(len(vfs.ops))``).

* **ALICE-style power-cut modelling.**  The VFS tracks, per file, the
  *durable image*: the bytes guaranteed on disk.  Writes change only the
  live file; a successful ``fsync`` promotes the live content to durable;
  a ``replace`` stays *pending* — reverted by a power cut — until the
  parent directory is fsync'd.  :meth:`FaultyVFS.power_cut` restores every
  tracked file to its durable image: buffered-but-unsynced data vanishes,
  un-fsync'd renames roll back, un-fsync'd unlinks resurrect their file —
  the worst legal outcome of yanking the plug.

Fault kinds (:data:`FAULT_KINDS`, applicability per op in
:data:`KINDS_BY_OP`):

==================  ========================================================
``short-write``     Half the buffer reaches the file, then ``EIO``.
``eio-write``       The write fails with ``EIO``; nothing lands.
``enospc``          The write fails with ``ENOSPC`` (disk full).
``eio-fsync``       The fsync fails with ``EIO`` **and the dirty pages are
                    dropped** — the post-2018 "fsyncgate" semantics: after
                    a failed fsync the kernel may mark pages clean without
                    persisting them, so the caller must fail-stop.
``torn-rename``     The rename lands in the live namespace, then the power
                    fails before the directory entry is durable — recovery
                    sees the *old* name mapping.
``power-cut``       The power fails at this step; the op does not happen.
==================  ========================================================

The real ``os.fsync`` is **not** issued by :class:`FaultyVFS`: durability
is modelled by the image map instead of delegated to the kernel, which
makes a full crash-point sweep run in milliseconds.  The subprocess
SIGKILL harness (:mod:`repro.resilience.crashtest`) complements this with
genuine fsyncs against the real VFS.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from ..errors import PowerCut

#: Every fault kind :class:`FaultyVFS` can inject.
FAULT_KINDS = (
    "short-write",
    "eio-write",
    "enospc",
    "eio-fsync",
    "torn-rename",
    "power-cut",
)

#: Which fault kinds are meaningful at which faultable op.  The torture
#: loop uses this to pick a kind that actually bites at each step.
KINDS_BY_OP = {
    "write": ("short-write", "eio-write", "enospc", "power-cut"),
    "fsync": ("eio-fsync", "power-cut"),
    "replace": ("torn-rename", "power-cut"),
    "fsync_dir": ("eio-fsync", "power-cut"),
}


@dataclass(frozen=True)
class VfsFault:
    """One scripted injection: at faultable-op number *step*, fail as *kind*."""

    step: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown VFS fault kind {self.kind!r}; choose {FAULT_KINDS}")


class RealVFS:
    """The pass-through default: every primitive goes straight to the OS."""

    faulty = False

    def open(self, path: str, mode: str = "r", *, encoding=None, newline=None):
        return open(path, mode, encoding=encoding, newline=newline)

    def fsync(self, handle) -> None:
        """Flush *handle* (opened through this VFS) and fsync it to disk."""
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: str) -> None:
        """Persist directory-entry changes (renames, unlinks) under *directory*.

        Failure to *open* the directory, or an fsync rejection such as
        ``EINVAL``, is a platform limitation and is swallowed; a genuine
        I/O failure (``EIO``/``ENOSPC``) propagates so callers can refuse
        to build on renames that never became durable.
        """
        try:
            dir_fd = os.open(directory or ".", os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(dir_fd)
        except OSError as err:  # pragma: no cover - platform-dependent
            if err.errno in (errno.EIO, errno.ENOSPC):
                raise
        finally:
            os.close(dir_fd)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RealVFS()"


#: Sentinel durable image for "this file does not durably exist".
_ABSENT = object()


class _FaultyFile:
    """A writable handle whose writes pass through the owning FaultyVFS."""

    def __init__(self, vfs: "FaultyVFS", raw, path: str):
        self._vfs = vfs
        self._raw = raw
        self.path = path

    def write(self, data):
        return self._vfs._file_write(self, data)

    def flush(self) -> None:
        self._raw.flush()

    def truncate(self, size=None):
        # Not a faultable step of its own: truncation is only issued by
        # recovery (torn-tail cleanup), which the torture loop runs clean.
        self._raw.flush()
        return self._raw.truncate(size if size is not None else self._raw.tell())

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        self._raw.close()

    def __enter__(self) -> "_FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._raw, name)


class FaultyVFS:
    """A VFS that injects scripted storage failures and models power cuts.

    With ``script=None`` it is a recorder: every faultable op is appended
    to :attr:`ops` as ``(op, path)`` and nothing fails — the probe run the
    torture loop uses to enumerate a workload's crash points.  With a
    :class:`VfsFault` script, the op whose zero-based index equals
    ``script.step`` fails as ``script.kind``.
    """

    faulty = True

    def __init__(self, script: VfsFault | None = None):
        self.script = script
        #: Every faultable op seen, in order: ``(op, path)`` pairs.
        self.ops: list[tuple[str, str]] = []
        #: Whether the scripted fault actually fired.
        self.fired = False
        self._durable: dict[str, object] = {}
        #: Renames/unlinks applied live but not yet directory-fsync'd.
        self._pending: list[tuple] = []

    # -- durable-image bookkeeping -------------------------------------------

    def _ensure_tracked(self, path: str) -> None:
        path = os.path.abspath(path)
        if path in self._durable:
            return
        if os.path.exists(path):
            with open(path, "rb") as handle:
                self._durable[path] = handle.read()
        else:
            self._durable[path] = _ABSENT

    def _commit(self, path: str, image) -> None:
        self._durable[os.path.abspath(path)] = image

    def _image(self, path: str):
        return self._durable.get(os.path.abspath(path), _ABSENT)

    def unsynced_paths(self) -> list[str]:
        """Tracked files whose live content differs from their durable image."""
        out = []
        for path, image in sorted(self._durable.items()):
            live = None
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    live = handle.read()
            durable = None if image is _ABSENT else image
            if live != durable:
                out.append(path)
        return out

    def power_cut(self) -> None:
        """Simulate the plug being pulled: revert every file to its durable image.

        Unsynced writes vanish, pending (un-dir-fsync'd) renames roll back,
        pending unlinks resurrect their file.  After this the directory is
        exactly what a remounted disk would show; reopen and recover.
        """
        for path, image in self._durable.items():
            if image is _ABSENT:
                if os.path.exists(path):
                    os.remove(path)
            else:
                # The parent may have been garbage-collected since the image
                # was taken (checkpoint GC); resurrect it — extra files in an
                # unreferenced directory are invisible to recovery.
                os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
                with open(path, "wb") as handle:
                    handle.write(image)  # type: ignore[arg-type]
        self._pending.clear()

    # -- the injection protocol ----------------------------------------------

    def _step(self, op: str, path: str) -> str | None:
        """Record one faultable op; returns the fault kind to inject, if any."""
        index = len(self.ops)
        self.ops.append((op, path))
        if self.script is not None and index == self.script.step:
            self.fired = True
            return self.script.kind
        return None

    def _os_error(self, code: int, op: str, path: str) -> OSError:
        return OSError(code, f"injected {os.strerror(code)}", path)

    # -- primitives -----------------------------------------------------------

    def open(self, path: str, mode: str = "r", *, encoding=None, newline=None):
        writable = any(flag in mode for flag in ("w", "a", "+", "x"))
        if writable:
            self._ensure_tracked(path)
        raw = open(path, mode, encoding=encoding, newline=newline)
        if not writable:
            return raw
        return _FaultyFile(self, raw, os.path.abspath(path))

    def _file_write(self, handle: _FaultyFile, data):
        kind = self._step("write", handle.path)
        if kind == "power-cut":
            raise PowerCut("write", handle.path)
        if kind == "short-write":
            handle._raw.write(data[: max(1, len(data) // 2)])
            raise self._os_error(errno.EIO, "write", handle.path)
        if kind == "eio-write":
            raise self._os_error(errno.EIO, "write", handle.path)
        if kind == "enospc":
            raise self._os_error(errno.ENOSPC, "write", handle.path)
        return handle._raw.write(data)

    def fsync(self, handle) -> None:
        if not isinstance(handle, _FaultyFile):  # opened through another VFS
            handle.flush()
            os.fsync(handle.fileno())
            return
        handle._raw.flush()
        kind = self._step("fsync", handle.path)
        if kind == "power-cut":
            raise PowerCut("fsync", handle.path)
        if kind is not None:  # eio-fsync: dirty pages are dropped, then EIO
            self._drop_dirty(handle.path)
            raise self._os_error(errno.EIO, "fsync", handle.path)
        # Durability is modelled, not delegated: no real os.fsync here.
        with open(handle.path, "rb") as current:
            self._commit(handle.path, current.read())

    def _drop_dirty(self, path: str) -> None:
        """fsyncgate: a failed fsync loses the pages it was asked to persist."""
        image = self._image(path)
        if image is _ABSENT:
            if os.path.exists(path):
                os.remove(path)
        else:
            with open(path, "wb") as handle:
                handle.write(image)  # type: ignore[arg-type]

    def replace(self, src: str, dst: str) -> None:
        self._ensure_tracked(src)
        self._ensure_tracked(dst)
        kind = self._step("replace", dst)
        if kind == "power-cut":
            raise PowerCut("replace", dst)
        if kind == "torn-rename":
            # The rename lands live, the power fails before the directory
            # entry does: recovery must see the pre-rename mapping.
            os.replace(src, dst)
            self._pending.append(("rename", src, dst, self._image(src)))
            raise PowerCut("replace", dst)
        if kind is not None:
            raise self._os_error(errno.EIO, "replace", dst)
        os.replace(src, dst)
        self._pending.append(("rename", src, dst, self._image(src)))

    def remove(self, path: str) -> None:
        self._ensure_tracked(path)
        os.remove(path)
        self._pending.append(("remove", path))

    def fsync_dir(self, directory: str) -> None:
        kind = self._step("fsync_dir", directory)
        if kind == "power-cut":
            raise PowerCut("fsync_dir", directory)
        if kind is not None:
            raise self._os_error(errno.EIO, "fsync_dir", directory)
        directory = os.path.abspath(directory)
        kept: list[tuple] = []
        for entry in self._pending:
            target = entry[2] if entry[0] == "rename" else entry[1]
            if os.path.dirname(os.path.abspath(target)) != directory:
                kept.append(entry)
            elif entry[0] == "rename":
                _, src, dst, src_image = entry
                self._commit(dst, src_image)
                self._commit(src, _ABSENT)
            else:
                self._commit(entry[1], _ABSENT)
        self._pending = kept

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyVFS(script={self.script}, ops={len(self.ops)})"


#: The always-installed default VFS.
REAL_VFS = RealVFS()

_CURRENT: ContextVar["RealVFS | FaultyVFS"] = ContextVar("repro_vfs", default=REAL_VFS)


def current_vfs() -> "RealVFS | FaultyVFS":
    """The VFS installed for the current context (:data:`REAL_VFS` by default)."""
    return _CURRENT.get()


@contextmanager
def use_vfs(vfs: "RealVFS | FaultyVFS | None"):
    """Install *vfs* as the ambient VFS for the enclosed block."""
    token = _CURRENT.set(vfs if vfs is not None else REAL_VFS)
    try:
        yield vfs
    finally:
        # Mirror guard/faults: tolerate a token from another Context rather
        # than leaking a faulty VFS into the next operation on this thread.
        try:
            _CURRENT.reset(token)
        except ValueError:  # pragma: no cover - cross-context teardown
            _CURRENT.set(REAL_VFS)
