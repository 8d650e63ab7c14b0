"""The concurrent serving layer: snapshots, WAL durability, admission control.

Three pillars (see ``docs/SERVING.md``):

* **Snapshot isolation** — :meth:`repro.engine.database.Database.snapshot`
  and :meth:`repro.query.store.PreferenceStore.snapshot` hand every query a
  consistent, immutable copy-on-write view; writers proceed concurrently.
* **Preference WAL + crash recovery** — :class:`~repro.serve.wal.PreferenceWAL`
  is an append-only, fsync'd, checksummed log of preference and table
  mutations; :class:`~repro.serve.server.PreferenceServer` checkpoints it
  and replays it on open, truncating a torn tail and surfacing real
  corruption as typed :exc:`~repro.errors.DataCorruption`.
* **Admission control** — :class:`~repro.serve.executor.ServeExecutor` is a
  bounded worker pool with a queue limit, load shedding via typed
  :exc:`~repro.errors.Overloaded`, graceful drain and p50/p95/p99 latency
  accounting.

This package initializer is deliberately import-light: ``engine.database``
imports :mod:`repro.serve.rwlock`, so everything touching the execution
stack loads lazily through module ``__getattr__``.
"""

from __future__ import annotations

from .rwlock import RWLock

__all__ = [
    "RWLock",
    "PreferenceWAL",
    "WalRecord",
    "WalReplay",
    "PreferenceServer",
    "ServerSnapshot",
    "ServeExecutor",
    "LatencyStats",
]

_LAZY = {
    "PreferenceWAL": ("repro.serve.wal", "PreferenceWAL"),
    "WalRecord": ("repro.serve.wal", "WalRecord"),
    "WalReplay": ("repro.serve.wal", "WalReplay"),
    "PreferenceServer": ("repro.serve.server", "PreferenceServer"),
    "ServerSnapshot": ("repro.serve.server", "ServerSnapshot"),
    "ServeExecutor": ("repro.serve.executor", "ServeExecutor"),
    "LatencyStats": ("repro.serve.executor", "LatencyStats"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
