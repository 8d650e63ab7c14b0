"""PreferenceServer: snapshot isolation, durability, crash recovery."""

from __future__ import annotations

import os
import shutil

import pytest

from repro import Preference, eq
from repro.errors import CatalogError, PreferenceError, ReproError
from repro.serve.server import PreferenceServer, state_digest

from .conftest import build_movie_db


def comedy(name: str = "comedy") -> Preference:
    return Preference(name, "GENRES", eq("genre", "Comedy"), 0.8, 0.9)


def drama(name: str = "drama") -> Preference:
    return Preference(name, "DIRECTORS", eq("d_id", 1), 0.9, 0.8)


NEW_MOVIE = (99, "New Release", 2012, 100, 1)


# -- ephemeral: snapshot isolation -------------------------------------------


def test_snapshot_isolated_from_later_writes():
    server = PreferenceServer(build_movie_db())
    server.add_preference("alice", comedy())
    snap = server.snapshot()
    before_rows = len(snap.db.catalog.table("MOVIES").rows)
    before_digest = snap.digest()

    server.insert("MOVIES", NEW_MOVIE)
    server.add_preference("alice", drama())
    server.add_preference("bob", comedy())

    assert len(snap.db.catalog.table("MOVIES").rows) == before_rows
    assert [p.name for p in snap.store.preferences_of("alice")] == ["comedy"]
    assert snap.store.preferences_of("bob") == []
    assert snap.digest() == before_digest  # the snapshot never moves

    live = server.snapshot()
    assert len(live.db.catalog.table("MOVIES").rows) == before_rows + 1
    assert len(live.store.preferences_of("alice")) == 2
    assert live.db_version > snap.db_version
    assert live.store_version > snap.store_version


def test_snapshot_is_reused_until_a_version_moves():
    server = PreferenceServer(build_movie_db())
    server.add_preference("alice", comedy())
    first = server.snapshot()
    assert server.snapshot() is first
    assert server.current_snapshot() is first

    server.add_preference("alice", drama())
    assert server.current_snapshot() is None
    second = server.snapshot()
    assert second is not first
    assert server.snapshot() is second

    # Writes around the write methods move a version too: never hidden.
    server.db.insert("MOVIES", NEW_MOVIE)
    assert server.current_snapshot() is None
    third = server.snapshot()
    assert third is not second
    assert third.db_version == server.db.version
    assert len(third.db.catalog.table("MOVIES").rows) == len(
        server.db.catalog.table("MOVIES").rows
    )
    server.store.add("bob", comedy())
    assert server.current_snapshot() is None
    assert [p.name for p in server.snapshot().store.preferences_of("bob")] == ["comedy"]


def test_a_poisoned_server_publishes_no_snapshot(tmp_path):
    server, _ = PreferenceServer.open(str(tmp_path), initial=build_movie_db())
    server.snapshot()
    server._poisoned = "simulated append failure"
    assert server.current_snapshot() is None
    with pytest.raises(ReproError):
        server.snapshot()
    server.close()


def test_snapshot_is_read_only():
    server = PreferenceServer(build_movie_db())
    snap = server.snapshot()
    with pytest.raises(CatalogError):
        snap.db.insert("MOVIES", NEW_MOVIE)
    with pytest.raises(PreferenceError):
        snap.store.add("alice", comedy())


def test_captured_table_refuses_a_direct_write():
    """The copy-on-write freeze gate: a write that skips the Database's
    fork, straight to a table object a snapshot shares, raises instead of
    changing the snapshot under its readers."""
    server = PreferenceServer(build_movie_db())
    snap = server.snapshot()
    captured = server.db.catalog.table("MOVIES")
    assert snap.db.catalog.table("MOVIES") is captured
    before = list(captured.rows)
    with pytest.raises(CatalogError, match="frozen"):
        captured.insert(NEW_MOVIE)
    assert captured.rows == before
    server.insert("MOVIES", NEW_MOVIE)  # the Database path forks and succeeds
    assert snap.db.catalog.table("MOVIES").rows == before


def test_snapshot_sessions_answer_from_the_snapshot():
    server = PreferenceServer(build_movie_db())
    server.add_preference("alice", comedy())
    snap = server.snapshot()
    server.insert("MOVIES", NEW_MOVIE)
    server.insert("GENRES", (99, "Comedy"))

    session = snap.session_for("alice")
    result = session.execute(
        "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING comedy"
    )
    titles = {row[0] for row in result.presented().rows}
    assert "New Release" not in titles  # rows born after the snapshot are invisible

    live_result = server.snapshot().session_for("alice").execute(
        "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING comedy"
    )
    assert "New Release" in {row[0] for row in live_result.presented().rows}


def test_ephemeral_server_cannot_checkpoint():
    server = PreferenceServer(build_movie_db())
    with pytest.raises(ReproError):
        server.checkpoint()


# -- durable: WAL + recovery --------------------------------------------------


def test_recovery_replays_wal_onto_checkpoint(tmp_path):
    directory = str(tmp_path / "state")
    server, replay = PreferenceServer.open(directory, initial=build_movie_db())
    assert replay.records == []  # brand-new directory
    server.add_preference("alice", comedy())
    server.add_preference("alice", drama())
    server.remove_preference("alice", "drama")
    server.add_preference("bob", drama())
    server.insert("MOVIES", NEW_MOVIE)
    digest = server.state_digest()
    lsn = server.wal.lsn
    server.close()  # no checkpoint: recovery must come entirely from the WAL

    recovered, replay = PreferenceServer.open(directory)
    assert replay.clean
    assert replay.last_lsn == lsn
    assert recovered.state_digest() == digest
    assert [p.name for p in recovered.store.preferences_of("alice")] == ["comedy"]
    recovered.close()


def test_checkpoint_resets_wal_and_preserves_state(tmp_path):
    directory = str(tmp_path / "state")
    server, _ = PreferenceServer.open(directory, initial=build_movie_db())
    server.add_preference("alice", comedy())
    server.insert("MOVIES", NEW_MOVIE)
    server.checkpoint()
    assert os.path.getsize(os.path.join(directory, "preferences.wal")) == 0
    digest = server.state_digest()
    server.close()

    recovered, replay = PreferenceServer.open(directory)
    assert replay.records == []  # everything came from the checkpoint
    assert recovered.state_digest() == digest
    recovered.close()


def test_replay_is_idempotent_over_checkpoint(tmp_path):
    """Crash between checkpoint-written and WAL-reset: redo must tolerate
    records whose effects the checkpoint already holds."""
    directory = str(tmp_path / "state")
    server, _ = PreferenceServer.open(directory, initial=build_movie_db())
    server.add_preference("alice", comedy())
    server.insert("MOVIES", NEW_MOVIE)
    wal_path = os.path.join(directory, "preferences.wal")
    saved_wal = wal_path + ".saved"
    shutil.copy(wal_path, saved_wal)
    server.checkpoint()
    digest = server.state_digest()
    server.close()
    shutil.copy(saved_wal, wal_path)  # the crash left the old log behind

    recovered, replay = PreferenceServer.open(directory)
    assert len(replay.records) == 2  # both records replayed...
    assert recovered.state_digest() == digest  # ...with no double effects
    recovered.close()


def test_unversioned_checkpoint_layout_is_refused(tmp_path):
    # A fixed checkpoint/ directory and no CURRENT pointer: opening it as a
    # brand-new (empty) directory would silently drop the saved state.
    from repro.engine.persist import save_database

    directory = tmp_path / "state"
    save_database(build_movie_db(), str(directory / "checkpoint"))
    before = sorted(os.listdir(directory))
    with pytest.raises(ReproError, match="unsupported server directory layout"):
        PreferenceServer.open(str(directory))
    assert sorted(os.listdir(directory)) == before  # nothing written or collected


def test_auto_checkpoint_after_n_appends(tmp_path):
    directory = str(tmp_path / "state")
    server, _ = PreferenceServer.open(
        directory, initial=build_movie_db(), auto_checkpoint=3
    )
    for i in range(3):
        server.add_preference("alice", comedy(f"p{i}"))
    assert os.path.getsize(os.path.join(directory, "preferences.wal")) == 0
    server.close()

    recovered, replay = PreferenceServer.open(directory)
    assert replay.records == []
    assert len(recovered.store.preferences_of("alice")) == 3
    recovered.close()


def test_non_loggable_preference_rejected_before_store_or_log(tmp_path):
    from repro.core.scoring import CallableScore

    directory = str(tmp_path / "state")
    server, _ = PreferenceServer.open(directory, initial=build_movie_db())
    digest = server.state_digest()
    lsn = server.wal.lsn
    bad = Preference(
        "bad", "MOVIES", eq("m_id", 1), CallableScore(lambda y: 1.0, ["year"]), 1.0
    )
    with pytest.raises(PreferenceError):
        server.add_preference("alice", bad)
    assert server.wal.lsn == lsn  # nothing hit the log
    assert server.state_digest() == digest  # nothing hit the store
    server.close()


# -- narrowed replay: corruption must not be mistaken for redo -----------------


def append_wal_record(directory: str, op: str, payload: dict) -> None:
    """Hand-forge one valid WAL record, as a crashed-but-durable append would."""
    from repro.serve.wal import PreferenceWAL, scan_wal

    path = os.path.join(directory, "preferences.wal")
    wal = PreferenceWAL(path, sync=False, start_lsn=scan_wal(path).last_lsn)
    wal.append(op, payload)
    wal.close()


def durable_server_dir(tmp_path) -> str:
    directory = str(tmp_path / "state")
    server, _ = PreferenceServer.open(directory, initial=build_movie_db())
    server.insert("MOVIES", NEW_MOVIE)
    server.checkpoint()
    server.close()
    return directory


def test_replay_skips_identical_duplicate_insert(tmp_path):
    directory = durable_server_dir(tmp_path)
    # The record predates the checkpoint that already holds its row: benign.
    append_wal_record(
        directory, "row.insert", {"table": "MOVIES", "values": list(NEW_MOVIE)}
    )
    recovered, replay = PreferenceServer.open(directory)
    assert len(replay.records) == 1
    rows = recovered.snapshot().db.table("MOVIES").rows
    assert sum(1 for row in rows if row[0] == NEW_MOVIE[0]) == 1
    recovered.close()


def test_replay_rejects_conflicting_row_under_same_key(tmp_path):
    from repro.errors import DataCorruption

    directory = durable_server_dir(tmp_path)
    conflicting = (NEW_MOVIE[0], "Different Title", 1990, 80, 2)
    append_wal_record(
        directory, "row.insert", {"table": "MOVIES", "values": list(conflicting)}
    )
    with pytest.raises(DataCorruption) as excinfo:
        PreferenceServer.open(directory)
    assert "conflicts" in str(excinfo.value)


def test_replay_rejects_schema_violating_record(tmp_path):
    from repro.errors import DataCorruption

    directory = durable_server_dir(tmp_path)
    append_wal_record(
        directory, "row.insert", {"table": "MOVIES", "values": [1, 2]}  # wrong arity
    )
    with pytest.raises(DataCorruption) as excinfo:
        PreferenceServer.open(directory)
    assert "schema" in str(excinfo.value) or "fit" in str(excinfo.value)


def test_replay_rejects_unknown_table(tmp_path):
    from repro.errors import DataCorruption

    directory = durable_server_dir(tmp_path)
    append_wal_record(
        directory, "row.insert", {"table": "NO_SUCH", "values": [1]}
    )
    with pytest.raises(DataCorruption):
        PreferenceServer.open(directory)


# -- the digest itself ---------------------------------------------------------


def test_state_digest_tracks_logical_state():
    db_a, db_b = build_movie_db(), build_movie_db()
    server_a = PreferenceServer(db_a)
    server_b = PreferenceServer(db_b)
    assert server_a.state_digest() == server_b.state_digest()

    server_a.add_preference("alice", comedy())
    assert server_a.state_digest() != server_b.state_digest()
    server_b.add_preference("alice", comedy())
    assert server_a.state_digest() == server_b.state_digest()

    server_a.insert("MOVIES", NEW_MOVIE)
    assert server_a.state_digest() != server_b.state_digest()
    server_b.insert("MOVIES", NEW_MOVIE)
    assert server_a.state_digest() == server_b.state_digest()


def test_state_digest_ignores_emptied_users():
    # A user whose last preference was removed digests like an unknown user:
    # recovery never recreates empty entries, so the digest must not see them.
    server_a = PreferenceServer(build_movie_db())
    server_b = PreferenceServer(build_movie_db())
    server_a.add_preference("alice", comedy())
    server_a.remove_preference("alice", "comedy")
    server_a.add_preference("bob", drama())
    server_a.clear_preferences("bob")
    assert server_a.state_digest() == server_b.state_digest()


def test_state_digest_matches_snapshot_digest():
    server = PreferenceServer(build_movie_db())
    server.add_preference("alice", comedy())
    snap = server.snapshot()
    assert snap.digest() == server.state_digest()
    assert state_digest(snap.db, snap.store) == snap.digest()
