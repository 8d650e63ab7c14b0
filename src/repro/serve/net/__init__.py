"""The network serving layer: an asyncio TCP front end over PreferenceServer.

Three modules (see ``docs/SERVING.md``, "The network front end"):

* :mod:`.protocol` — the length-prefixed JSON wire format (4-byte
  big-endian length + canonical JSON), request/response shapes, and the
  typed-error codec that carries :class:`~repro.errors.ReproError`
  subclasses (with their structured fields — ``Overloaded.retry_after``,
  ``TransientFault.site`` ...) across the wire.
* :mod:`.server` — :class:`NetServer`, the asyncio front end: per-tenant
  namespaces and quota admission, end-to-end deadline propagation into
  :class:`~repro.resilience.QueryGuard`, graceful drain on SIGTERM,
  health/readiness ops, per-connection ``serve.net`` spans, and the
  ``net.accept`` / ``net.read`` / ``net.write`` / ``net.close`` fault
  sites for seeded network chaos.
* :mod:`.client` — :class:`PreferenceClient`, the blocking client SDK:
  jittered :class:`~repro.resilience.RetryPolicy` backoff bounded by a
  :class:`~repro.resilience.RetryBudget`, server ``retry_after`` hints
  honored over blind backoff, client-side deadlines propagated per
  attempt, and end-to-end result-digest verification.

The chaos suite for all of it is :mod:`repro.serve.net.chaos`
(``python -m repro chaos --scenario network``).

Import-light like :mod:`repro.serve`: everything loads lazily.
"""

from __future__ import annotations

__all__ = [
    "NetServer",
    "NetServerHandle",
    "PreferenceClient",
    "encode_frame",
    "read_frame",
    "write_frame",
    "error_to_dict",
    "error_from_dict",
    "triples_digest",
]

_LAZY = {
    "NetServer": ("repro.serve.net.server", "NetServer"),
    "NetServerHandle": ("repro.serve.net.server", "NetServerHandle"),
    "PreferenceClient": ("repro.serve.net.client", "PreferenceClient"),
    "encode_frame": ("repro.serve.net.protocol", "encode_frame"),
    "read_frame": ("repro.serve.net.protocol", "read_frame"),
    "write_frame": ("repro.serve.net.protocol", "write_frame"),
    "error_to_dict": ("repro.serve.net.protocol", "error_to_dict"),
    "error_from_dict": ("repro.serve.net.protocol", "error_from_dict"),
    "triples_digest": ("repro.serve.net.protocol", "triples_digest"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
