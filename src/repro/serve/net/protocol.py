"""Length-prefixed JSON wire protocol for the network serving layer.

One frame is ``<4-byte big-endian length><canonical JSON body>``; the body
is UTF-8 text produced by :func:`repro.serve.codec.canonical_json`, so a
frame's bytes are deterministic for a given payload — what lets the chaos
suite digest results end-to-end and lets tests assert on exact frames.

Request shape (client → server)::

    {"id": n, "op": "query" | "add_preference" | "remove_preference" |
                    "clear_preferences" | "insert" | "ping" | "health" |
                    "ready" | "stats",
     "tenant": "...",          # optional; namespaces users and quotas
     "deadline_ms": 1500.0,    # optional; remaining client budget
     ...op-specific fields}

Response shape (server → client)::

    {"id": n, "ok": true,  "result": {...}}
    {"id": n, "ok": false, "error": {"type": "Overloaded", "message": "...",
                                     "reason": "queue-full",
                                     "retry_after": 0.05, ...}}

The error codec is the part that keeps failures *typed across the network
boundary*: :func:`error_to_dict` serializes a :class:`~repro.errors.ReproError`
with its structured fields and :func:`error_from_dict` rebuilds the same
exception class client-side, so ``except Overloaded`` works identically
against an in-process server and a remote one.  An exception that is not a
``ReproError`` is marked ``"typed": false`` — the chaos suite counts any
such escape as a server bug.

Framing failures (truncated length word, torn body, oversized frame,
non-JSON bytes) raise :exc:`~repro.errors.NetworkFault` — transport
problems, retryable on a fresh connection — never a silent partial read.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
from typing import Any

from ... import errors
from ...errors import NetworkFault, ReproError
from ..codec import canonical_json

#: Frames larger than this are refused — a length word this big is far more
#: likely a desynchronized stream (reading JSON bytes as a length) than a
#: legitimate payload.
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """One wire frame: big-endian length prefix + canonical JSON body."""
    body = canonical_json(payload).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise NetworkFault("net.write", f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes, site: str = "net.read") -> dict:
    """Parse one frame body; a torn or garbled body is a typed NetworkFault."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise NetworkFault(site, f"torn or garbled frame: {err}") from err
    if not isinstance(payload, dict):
        raise NetworkFault(site, f"frame body is {type(payload).__name__}, not an object")
    return payload


def _recv_exact(sock: socket.socket, count: int, site: str) -> bytes:
    """Read exactly *count* bytes or raise a typed NetworkFault.

    EOF mid-frame is the wire artifact of a dropped connection or a torn
    write on the far side; a socket timeout is a stalled peer.  Both become
    :exc:`~repro.errors.NetworkFault` so callers retry instead of hanging
    or consuming a half frame.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as err:
            raise NetworkFault(site, "read stalled past the socket timeout") from err
        except OSError as err:
            raise NetworkFault(site, f"connection failed mid-read: {err}") from err
        if not chunk:
            raise NetworkFault(
                site, f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket, site: str = "net.read") -> "dict | None":
    """Read one frame from a blocking socket; ``None`` on clean EOF.

    Clean EOF is only an EOF *between* frames (zero bytes of the length
    word read) — anything later is a torn frame and raises.
    """
    try:
        first = sock.recv(_HEADER.size)
    except socket.timeout as err:
        raise NetworkFault(site, "read stalled past the socket timeout") from err
    except OSError as err:
        raise NetworkFault(site, f"connection failed mid-read: {err}") from err
    if not first:
        return None
    header = first + (
        _recv_exact(sock, _HEADER.size - len(first), site) if len(first) < _HEADER.size else b""
    )
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise NetworkFault(site, f"frame length {length} exceeds MAX_FRAME (desync?)")
    return decode_body(_recv_exact(sock, length, site), site)


def write_frame(sock: socket.socket, payload: dict, site: str = "net.write") -> None:
    """Send one frame over a blocking socket; failures are typed."""
    try:
        sock.sendall(encode_frame(payload))
    except socket.timeout as err:
        raise NetworkFault(site, "write stalled past the socket timeout") from err
    except OSError as err:
        raise NetworkFault(site, f"connection failed mid-write: {err}") from err


# ---------------------------------------------------------------------------
# Result digests
# ---------------------------------------------------------------------------


def wire_triples(result) -> list:
    """A query result's presented triples in JSON-clean, digestable form.

    Scores round to 9 decimals (the chaos suite's tolerance for
    cross-strategy float association differences); rows become lists so
    the value survives a JSON round trip byte-identically.
    """
    triples = []
    for row, score, conf in result.presented().triples():
        triples.append(
            [list(row), None if score is None else round(score, 9), round(conf, 9)]
        )
    return triples


def triples_digest(triples: list) -> str:
    """Order-independent sha256 over *triples* (wire form or tuples).

    Normalizes tuples to lists first, so the digest a server computes
    before serialization equals the digest a client computes after JSON
    decoding iff the triples arrived intact — the end-to-end integrity
    check torn frames must not survive.
    """
    normalized = sorted(
        [list(row), score, conf] for row, score, conf in triples
    )
    return hashlib.sha256(canonical_json(normalized).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Typed errors across the wire
# ---------------------------------------------------------------------------

#: Structured fields preserved per error type, beyond the message.
_STRUCTURED_FIELDS = {
    "Overloaded": ("reason", "limit", "session", "retry_after"),
    "QueryTimeout": ("timeout", "elapsed"),
    "ResourceExhausted": ("kind", "limit", "used"),
    "TransientFault": ("site",),
    "NetworkFault": ("site",),
    "DurabilityError": ("op", "path"),
    "WALPoisoned": ("op", "path", "reason"),
    "PowerCut": ("op", "path"),
    "DataCorruption": ("path", "line"),
    "ParseError": ("line", "column"),
}


def error_to_dict(err: BaseException) -> dict:
    """Serialize an exception for an error response.

    ``typed`` records whether the server failed with a :class:`ReproError`
    — an untyped escape is a bug the chaos suite hunts, so the distinction
    must survive the wire.
    """
    data: dict[str, Any] = {
        "type": type(err).__name__,
        "message": str(err),
        "typed": isinstance(err, ReproError),
    }
    for field in _STRUCTURED_FIELDS.get(data["type"], ()):
        value = getattr(err, field, None)
        if value is not None:
            data[field] = value
    return data


def error_from_dict(data: dict) -> ReproError:
    """Rebuild the typed exception an error response carries.

    The rebuilt error has the server's class, its exact message and the
    structured fields of :data:`_STRUCTURED_FIELDS`.  Constructors are
    bypassed: several derive their message from their fields, so calling
    one with the already formatted message would mangle it.  Unknown or
    untyped error types come back as plain :class:`ReproError` with the
    server's message — still typed at the API boundary, but flagged
    ``server-internal`` so harnesses can treat them as failures.
    """
    name = data.get("type", "ReproError")
    message = data.get("message", "unknown server error")
    if not data.get("typed", True):
        return ReproError(f"server-internal ({name}): {message}")
    cls = getattr(errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        return ReproError(f"{name}: {message}")
    err = cls.__new__(cls)
    Exception.__init__(err, message)
    for field in _STRUCTURED_FIELDS.get(name, ()):
        setattr(err, field, data.get(field))
    return err
