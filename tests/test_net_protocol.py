"""Wire protocol: framing, digests, and the typed-error codec."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.errors import (
    DataCorruption,
    DurabilityError,
    NetworkFault,
    Overloaded,
    PowerCut,
    QueryTimeout,
    ReproError,
    ResourceExhausted,
    TransientFault,
    WALPoisoned,
)
from repro.serve.net.protocol import (
    MAX_FRAME,
    decode_body,
    encode_frame,
    error_from_dict,
    error_to_dict,
    read_frame,
    triples_digest,
    write_frame,
)


def _socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


# -- framing -------------------------------------------------------------------


def test_frame_round_trip_over_socket():
    a, b = _socket_pair()
    try:
        payload = {"op": "query", "user": "u1", "nested": {"k": [1, 2.5, None]}}
        write_frame(a, payload)
        assert read_frame(b) == payload
    finally:
        a.close()
        b.close()


def test_frame_bytes_are_deterministic():
    one = encode_frame({"b": 1, "a": 2})
    two = encode_frame({"a": 2, "b": 1})
    assert one == two  # canonical JSON: key order never changes the bytes


def test_clean_eof_between_frames_is_none():
    a, b = _socket_pair()
    try:
        a.close()
        assert read_frame(b) is None
    finally:
        b.close()


def test_eof_mid_frame_is_typed_network_fault():
    a, b = _socket_pair()
    try:
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[: len(frame) - 3])  # torn: length promised more bytes
        a.close()
        with pytest.raises(NetworkFault):
            read_frame(b)
    finally:
        b.close()


def test_torn_length_word_is_typed_network_fault():
    a, b = _socket_pair()
    try:
        a.sendall(b"\x00\x00")  # half a length word, then EOF
        a.close()
        with pytest.raises(NetworkFault):
            read_frame(b)
    finally:
        b.close()


def test_garbled_body_is_typed_network_fault():
    with pytest.raises(NetworkFault):
        decode_body(b"not json at all {{{")
    with pytest.raises(NetworkFault):
        decode_body(b"[1, 2, 3]")  # valid JSON, but not an object


def test_oversized_length_word_is_refused():
    a, b = _socket_pair()
    try:
        a.sendall((MAX_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(NetworkFault, match="MAX_FRAME"):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_stalled_read_times_out_typed():
    a, b = _socket_pair()
    try:
        b.settimeout(0.05)
        with pytest.raises(NetworkFault, match="stalled"):
            read_frame(b)  # nothing ever arrives
    finally:
        a.close()
        b.close()


def test_concurrent_frames_keep_their_shape():
    a, b = _socket_pair()
    received = []

    def reader():
        while True:
            frame = read_frame(b)
            if frame is None:
                return
            received.append(frame)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(50):
            write_frame(a, {"id": i, "payload": "x" * (i * 7 % 91)})
    finally:
        a.close()
        thread.join(timeout=5.0)
        b.close()
    assert [f["id"] for f in received] == list(range(50))


# -- digests -------------------------------------------------------------------


def test_triples_digest_is_order_independent():
    rows = [
        (("a", 1), 0.5, 0.9),
        (("b", 2), None, 0.8),
        (("c", 3), 0.25, 0.7),
    ]
    assert triples_digest(rows) == triples_digest(list(reversed(rows)))


def test_triples_digest_normalizes_tuples_and_lists():
    as_tuples = [(("a", 1), 0.5, 0.9)]
    as_lists = [[["a", 1], 0.5, 0.9]]  # what a JSON round trip produces
    assert triples_digest(as_tuples) == triples_digest(as_lists)


def test_triples_digest_sees_changed_rows():
    base = [(("a", 1), 0.5, 0.9)]
    assert triples_digest(base) != triples_digest([(("a", 1), 0.5, 0.8)])
    assert triples_digest(base) != triples_digest([(("a", 2), 0.5, 0.9)])
    assert triples_digest(base) != triples_digest([(("a", 1), None, 0.9)])


# -- the error codec -----------------------------------------------------------


@pytest.mark.parametrize(
    "err",
    [
        Overloaded("queue-full", limit=8, retry_after=0.25),
        Overloaded("tenant-quota", limit=4, session="t1", retry_after=1.5),
        Overloaded("shutting-down"),
        QueryTimeout(1.5, 1.7),
        ResourceExhausted("rows", 100, 150),
        TransientFault("net.read"),
        NetworkFault("net.write", "torn frame"),
        DurabilityError("fsync", "/d/wal.log", "EIO"),
        WALPoisoned("/d/wal.log", "fsync failed"),
        PowerCut("rename", "/d/checkpoint.tmp"),
        DataCorruption("bad checksum", path="t.jsonl", line=7),
    ],
)
def test_error_codec_round_trips_typed_errors(err):
    rebuilt = error_from_dict(error_to_dict(err))
    assert type(rebuilt) is type(err)
    assert str(rebuilt) == str(err)
    for attr in ("reason", "limit", "session", "retry_after", "timeout",
                 "elapsed", "kind", "used", "site", "op", "path", "line"):
        assert getattr(rebuilt, attr, None) == getattr(err, attr, None)


def test_untyped_error_is_flagged_and_wrapped():
    data = error_to_dict(ValueError("boom"))
    assert data["typed"] is False
    rebuilt = error_from_dict(data)
    assert isinstance(rebuilt, ReproError)
    assert "server-internal" in str(rebuilt)
    assert "boom" in str(rebuilt)


def test_unknown_typed_error_degrades_to_repro_error():
    rebuilt = error_from_dict({"type": "NoSuchError", "message": "m", "typed": True})
    assert type(rebuilt) is ReproError
    assert "NoSuchError" in str(rebuilt)


def test_overloaded_message_carries_retry_after():
    err = Overloaded("queue-full", limit=8, retry_after=0.251)
    assert "retry after 0.251s" in str(err)
