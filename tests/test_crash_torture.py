"""The crash-torture harness, plus targeted recovery-ordering scenarios.

The harness itself is exercised small here (one in-process round, one
SIGKILL round); the CI crash-torture job runs the full sweep.  The targeted
tests pin the subtlest recovery orderings: replaying one WAL twice, a crash
inside checkpoint() between the state flush and the WAL reset, and the LSN
of a log that a checkpoint emptied.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import DataCorruption, DurabilityError, WALPoisoned
from repro.resilience.crashtest import (
    _MUTATION_OPS,
    _run_workload,
    mutation_self_check,
    run_crash_torture,
    torture_ops,
)
from repro.resilience.opmodel import apply_op, base_db, oracle_digests, verify_recovery
from repro.resilience.vfs import FaultyVFS
from repro.serve.server import CURRENT_FILE, PREFS_FILE, PreferenceServer
from repro.serve.wal import PreferenceWAL


class TestScriptedWorkload:
    def test_deterministic_per_seed(self):
        assert torture_ops(7, 20) == torture_ops(7, 20)
        assert torture_ops(7, 20) != torture_ops(8, 20)

    def test_every_op_changes_the_oracle_state(self):
        # The generator promises no logical no-ops (a remove may *revisit* an
        # earlier state, so only consecutive digests must differ).
        ops = [op for op in torture_ops(3, 30) if op[0] != "checkpoint"]
        digests = oracle_digests(ops, base_db())
        assert len(digests) == len(ops) + 1
        assert all(a != b for a, b in zip(digests, digests[1:]))


class TestTortureHarness:
    def test_small_sweep_recovers_every_crash_point(self, tmp_path):
        report = run_crash_torture(
            seed=11,
            rounds=1,
            ops=10,
            sigkill_rounds=1,
            mutation_check=False,
            directory=str(tmp_path),
        )
        assert report.errors == [], report.describe()
        points = report.counts["crash_points"]
        assert points > 0
        assert report.counts["sigkill_kills"] == report.counts["sigkill_rounds"] == 1
        # Crash points are not cells: the summary line counts them itself.
        assert report.describe().splitlines()[-1] == (
            f"crash-torture: 0/0 cells ok, {points} crash_points, 1 sigkill_rounds, "
            "0 errors — OK"
        )

    def test_mutation_self_check_catches_lossy_replay(self, tmp_path):
        assert any(op[0] == "row.insert" for op in _MUTATION_OPS)
        assert mutation_self_check(str(tmp_path)) is True

    def test_a_missed_mutation_and_an_unexercised_kind_are_errors(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience import crashtest

        monkeypatch.setattr(crashtest, "mutation_self_check", lambda base_dir: False)
        # Renames then only ever lose power: torn-rename is never exercised.
        monkeypatch.setitem(crashtest.KINDS_BY_OP, "replace", ("power-cut",))
        report = run_crash_torture(
            seed=11, rounds=1, ops=4, sigkill_rounds=0, directory=str(tmp_path)
        )
        assert not report.ok
        assert report.errors == [
            "mutation self-check (lossy replay) MISSED",
            "fault kind torn-rename never exercised",
        ]


class TestRecoveredLsn:
    """Recovery restores the LSN of the prefix it recovered."""

    #: Three records, each followed by a checkpoint that empties the log.
    OPS = [
        ("pref.add", "alice", "d_1"),
        ("row.insert", "MOVIES", (901, "movie 901", 2008, 95, 1)),
        ("checkpoint",),
        ("pref.add", "bob", "y_2000"),
        ("checkpoint",),
    ]

    def recovery_failure(self, directory: str) -> "str | None":
        return verify_recovery(
            directory, self.OPS, oracle_digests(self.OPS, base_db()), len(self.OPS),
            len(self.OPS), initial=base_db(),
        )

    def test_lsn_survives_a_checkpoint_reset(self, tmp_path):
        directory = str(tmp_path)
        assert _run_workload(directory, self.OPS, FaultyVFS()) == (5, 5)
        assert self.recovery_failure(directory) is None
        server, _ = PreferenceServer.open(directory)
        apply_op(server, ("pref.add", "carol", "d_2"))
        assert server.wal.lsn == 4  # numbering resumes; LSN 1 is never reissued
        server.close()

    def test_a_malformed_checkpoint_lsn_is_typed_corruption(self, tmp_path):
        directory = str(tmp_path)
        _run_workload(directory, self.OPS, FaultyVFS())
        with open(os.path.join(directory, CURRENT_FILE), encoding="utf-8") as handle:
            prefs_path = os.path.join(directory, handle.read().strip(), PREFS_FILE)
        with open(prefs_path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["lsn"] = "3"
        with open(prefs_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(DataCorruption, match="malformed lsn"):
            PreferenceServer.open(directory)

    def test_a_miscounted_lsn_fails_the_recovery_check(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        _run_workload(directory, self.OPS, FaultyVFS())
        monkeypatch.setattr(PreferenceWAL, "lsn", property(lambda wal: wal._lsn + 1))
        assert "recovered LSN 4" in self.recovery_failure(directory)


class TestReplayIdempotency:
    """Satellite: one WAL replayed twice must land on the same digest."""

    def workload(self, server) -> None:
        for op in torture_ops(5, 8):
            if op[0] != "checkpoint":  # keep every record in the WAL
                apply_op(server, op)

    def test_two_recoveries_of_the_same_wal_agree(self, tmp_path):
        directory = str(tmp_path)
        server, _ = PreferenceServer.open(directory, initial=base_db())
        self.workload(server)
        live = server.state_digest()
        server.close()

        first, replay_one = PreferenceServer.open(directory, initial=base_db())
        digest_one = first.state_digest()
        first.close()
        # The first recovery replayed but never checkpointed, so the second
        # recovery replays the very same records again.
        second, replay_two = PreferenceServer.open(directory, initial=base_db())
        digest_two = second.state_digest()
        second.close()

        assert replay_one.records == replay_two.records
        assert replay_one.records  # the scenario is vacuous on an empty log
        assert digest_one == digest_two == live


class TestCheckpointCrashWindows:
    """Satellite: crashes inside checkpoint() leave a recoverable cut."""

    def test_crash_after_flush_before_wal_reset(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        server, _ = PreferenceServer.open(directory, initial=base_db())
        self_ops = torture_ops(9, 6)
        for op in self_ops:
            if op[0] != "checkpoint":
                apply_op(server, op)
        live = server.state_digest()

        # The new checkpoint and pointer flip land, then the machine dies
        # before the WAL reset: recovery must redo the (now-stale) records
        # onto the new checkpoint idempotently.
        def dying_reset():
            raise OSError("simulated crash before WAL reset")

        monkeypatch.setattr(server.wal, "reset", dying_reset)
        with pytest.raises(OSError):
            server.checkpoint()
        server.close()

        recovered, replay = PreferenceServer.open(directory, initial=base_db())
        assert replay.records  # the old log really was replayed onto the new state
        assert recovered.state_digest() == live
        recovered.close()

    def test_crash_before_pointer_flip_keeps_old_checkpoint(
        self, tmp_path, monkeypatch
    ):
        directory = str(tmp_path)
        server, _ = PreferenceServer.open(directory, initial=base_db())
        for op in torture_ops(13, 6):
            if op[0] != "checkpoint":
                apply_op(server, op)
        live = server.state_digest()
        with open(os.path.join(directory, CURRENT_FILE), encoding="utf-8") as handle:
            pointer_before = handle.read()

        # Die after the new checkpoint directory is written but before the
        # CURRENT flip: the old checkpoint + full WAL remain authoritative.
        import repro.serve.server as server_module

        def dying_atomic_write(path, data):
            raise DurabilityError("write", path, "simulated crash before flip")

        monkeypatch.setattr(server_module, "_atomic_write", dying_atomic_write)
        with pytest.raises(DurabilityError):
            server.checkpoint()
        monkeypatch.undo()
        server.close()

        with open(os.path.join(directory, CURRENT_FILE), encoding="utf-8") as handle:
            assert handle.read() == pointer_before
        recovered, replay = PreferenceServer.open(directory, initial=base_db())
        assert replay.records
        assert recovered.state_digest() == live
        recovered.close()


class TestServerFailStop:
    def test_wal_append_failure_poisons_the_server(self, tmp_path):
        from repro.resilience.vfs import FaultyVFS, VfsFault, use_vfs

        directory = str(tmp_path)
        server, _ = PreferenceServer.open(directory, initial=base_db())
        # The append's file write is the first faultable op of the insert.
        with use_vfs(FaultyVFS(VfsFault(0, "eio-write"))):
            with pytest.raises(DurabilityError):
                server.insert("MOVIES", (777, "doomed", 2001, 90, 1))
        # Memory is now ahead of disk: the server refuses writes *and* reads.
        with pytest.raises(WALPoisoned):
            server.insert("MOVIES", (778, "after poison", 2001, 90, 1))
        with pytest.raises(WALPoisoned):
            server.snapshot()
        server.close()

        # A fresh open recovers to exactly the acknowledged prefix.
        recovered, _ = PreferenceServer.open(directory, initial=base_db())
        table = recovered.snapshot().db.table("MOVIES")
        assert all(row[0] not in (777, 778) for row in table.rows)
        recovered.close()
