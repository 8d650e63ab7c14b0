"""The op model every fault harness drives: stream, applier, verdicts, report."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.errors import QueryTimeout
from repro.resilience.opmodel import (
    Cell,
    Report,
    apply_op,
    base_db,
    judge_read,
    op_stream,
    oracle_digests,
    verify_recovery,
)
from repro.serve.net.client import PreferenceClient
from repro.serve.net.server import NetServer, namespaced, serve_in_thread
from repro.serve.server import PreferenceServer


def test_streams_over_disjoint_users_and_keys_never_conflict():
    # Concurrent writers each own a stream: interleaved, every write must
    # still succeed and change the state.
    server = PreferenceServer(base_db())
    first = op_stream(1, ["a", "b"])
    second = op_stream(2, ["c"], first_key=20_000_000)
    digest = server.state_digest()
    for op in (op for pair in zip(first, second) for op in pair):
        if op[0] == "checkpoint":
            continue
        apply_op(server, op)
        assert server.state_digest() != digest, op
        digest = server.state_digest()
        if len(server.db.table("GENRES")) >= 40:
            break
    else:  # pragma: no cover - the streams are endless
        pytest.fail("streams ended")


def test_ops_over_the_wire_reach_the_state_the_oracle_predicts():
    # Network chaos's kill phase relies on this: the client's four write
    # methods apply an op exactly as the server's do, user namespaced.
    users = ["w0", "w1"]
    ops = list(islice(op_stream(5, users), 30))
    stored = list(islice(op_stream(5, [namespaced("public", u) for u in users]), 30))
    server = PreferenceServer(base_db())
    handle = serve_in_thread(NetServer(server, tenant_quota=None))
    try:
        with PreferenceClient("127.0.0.1", handle.port, deadline_s=30.0) as client:
            for op in ops:
                apply_op(client, op)
    finally:
        handle.stop()
    assert server.state_digest() == oracle_digests(stored, base_db())[-1]


def test_recovery_past_the_issued_prefix_is_invented_state(tmp_path):
    ops = list(islice(op_stream(3, ["alice"]), 6))
    server, _ = PreferenceServer.open(str(tmp_path), initial=base_db())
    for op in ops:
        apply_op(server, op)
    server.close()
    digests = oracle_digests(ops, base_db())
    assert verify_recovery(str(tmp_path), ops, digests, 6, 6, base_db()) is None
    failure = verify_recovery(str(tmp_path), ops, digests, 2, 3, base_db())
    assert failure.startswith("recovered oracle prefix 6, not one of acked..issued = 2..3")


def _timed_out():
    raise QueryTimeout(1.0, 2.0)


@pytest.mark.parametrize(
    "read, outcome, ok",
    [
        (lambda: ("d1", "d1"), "exact", True),
        (lambda: ("d1", "d2"), "silent-mismatch", False),
        (_timed_out, "typed-QueryTimeout", True),
        (lambda: {}["oracle_digest"], "error-KeyError", False),
    ],
)
def test_one_read_verdict(read, outcome, ok):
    cell = Cell("gbu", "u0")
    judge_read(cell, read, (QueryTimeout,))
    assert (cell.outcome, cell.ok) == (outcome, ok)
    report = Report("harness", "seed=1", cells=[cell])
    assert report.ok is ok
    assert ("FAIL cell#0" in report.describe()) is not ok


def test_an_error_fails_a_report_without_cells():
    report = Report("crash-torture", "seed=0")
    report.count("crash_points", 3)
    assert report.ok and "crash_points: 3" in report.describe()
    report.errors.append("fault kind power-cut never exercised")
    assert not report.ok and report.describe().endswith("FAILED")
