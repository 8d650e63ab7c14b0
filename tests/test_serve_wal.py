"""Preference WAL: append/scan round-trips and the crash-recovery discipline.

Torn tails (damage confined to the final record) are tolerated and
truncated; anything earlier — a damaged middle line, an LSN gap — raises a
typed DataCorruption naming the file.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import DataCorruption, DurabilityError, PowerCut, WALPoisoned
from repro.resilience.vfs import FaultyVFS, VfsFault, use_vfs
from repro.serve.wal import PreferenceWAL, WalRecord, scan_wal


def wal_path(tmp_path) -> str:
    return os.path.join(str(tmp_path), "preferences.wal")


def write_clean_log(path: str, count: int = 3) -> list[WalRecord]:
    wal = PreferenceWAL(path, sync=False)
    records = [wal.append("pref.add", {"user": "u", "n": i}) for i in range(count)]
    wal.close()
    return records


def test_append_scan_round_trip(tmp_path):
    path = wal_path(tmp_path)
    written = write_clean_log(path, count=5)
    replay = scan_wal(path)
    assert replay.clean
    assert replay.records == written
    assert [r.lsn for r in replay.records] == [1, 2, 3, 4, 5]
    assert replay.last_lsn == 5


def test_missing_file_is_empty_clean_log(tmp_path):
    replay = scan_wal(wal_path(tmp_path))
    assert replay.clean
    assert replay.records == []
    assert replay.last_lsn == 0


def test_open_continues_lsn_assignment(tmp_path):
    path = wal_path(tmp_path)
    write_clean_log(path, count=3)
    wal, replay = PreferenceWAL.open(path, sync=False)
    assert replay.last_lsn == 3
    record = wal.append("pref.remove", {"user": "u", "name": "p"})
    assert record.lsn == 4
    wal.close()
    assert scan_wal(path).last_lsn == 4


def test_unterminated_final_record_is_torn_tail(tmp_path):
    path = wal_path(tmp_path)
    write_clean_log(path, count=3)
    size = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b"0123456789abcdef {\"lsn\":4,\"op\":\"pref.cl")  # crash mid-append
    replay = scan_wal(path)
    assert not replay.clean
    assert replay.torn_at == size
    assert len(replay.records) == 3
    assert "unterminated" in replay.torn_tail


def test_checksum_damage_on_final_line_is_torn_tail(tmp_path):
    path = wal_path(tmp_path)
    write_clean_log(path, count=3)
    with open(path, "rb") as handle:
        lines = handle.readlines()
    # Flip one byte inside the final record's body, keeping the newline.
    damaged = bytearray(lines[-1])
    damaged[20] ^= 0xFF
    with open(path, "wb") as handle:
        handle.writelines(lines[:-1] + [bytes(damaged)])
    replay = scan_wal(path)
    assert not replay.clean
    assert len(replay.records) == 2
    assert replay.last_lsn == 2


def test_open_truncates_torn_tail(tmp_path):
    path = wal_path(tmp_path)
    write_clean_log(path, count=3)
    clean_size = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b"garbage with no newline")
    wal, replay = PreferenceWAL.open(path, sync=False)
    assert replay.torn_at == clean_size
    assert os.path.getsize(path) == clean_size  # tail physically removed
    wal.append("pref.add", {"user": "u", "n": 99})  # continues from lsn 3
    wal.close()
    after = scan_wal(path)
    assert after.clean
    assert [r.lsn for r in after.records] == [1, 2, 3, 4]


def test_mid_file_damage_is_corruption(tmp_path):
    path = wal_path(tmp_path)
    write_clean_log(path, count=3)
    with open(path, "rb") as handle:
        lines = handle.readlines()
    damaged = bytearray(lines[1])
    damaged[25] ^= 0xFF
    with open(path, "wb") as handle:
        handle.writelines([lines[0], bytes(damaged), lines[2]])
    with pytest.raises(DataCorruption) as excinfo:
        scan_wal(path)
    assert "mid-file" in str(excinfo.value)


def test_lsn_gap_is_corruption(tmp_path):
    path = wal_path(tmp_path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(WalRecord(1, "pref.add", {"user": "u"}).encode())
        handle.write(WalRecord(3, "pref.add", {"user": "u"}).encode())
        handle.write(WalRecord(4, "pref.add", {"user": "u"}).encode())
    with pytest.raises(DataCorruption) as excinfo:
        scan_wal(path)
    assert "LSN" in str(excinfo.value)


def test_reset_empties_log_but_lsn_continues(tmp_path):
    path = wal_path(tmp_path)
    wal = PreferenceWAL(path, sync=False)
    wal.append("pref.add", {"user": "u"})
    wal.append("pref.add", {"user": "v"})
    wal.reset()
    assert os.path.getsize(path) == 0
    assert scan_wal(path).records == []
    record = wal.append("pref.clear", {"user": "u"})
    assert record.lsn == 3  # LSNs never reuse, even across a checkpoint reset
    wal.close()


def test_concurrent_sync_appends_get_contiguous_lsns(tmp_path):
    """Eight threads appending to one log at once: the append lock keeps
    LSN assignment and the record lines from interleaving.  ``sync=True``
    matters: the fsync widens the window in which an unlocked append
    would be overtaken."""
    path = wal_path(tmp_path)
    wal = PreferenceWAL(path, sync=True)
    threads, per_thread = 8, 50
    start = threading.Barrier(threads, timeout=10)
    failures = []

    def appender(worker: int) -> None:
        try:
            start.wait()
            for i in range(per_thread):
                wal.append("pref.add", {"user": f"u{worker}", "n": i})
        except BaseException as err:  # noqa: BLE001 - reported below
            failures.append(err)

    workers = [threading.Thread(target=appender, args=(w,)) for w in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=60)
    wal.close()
    assert failures == []
    replay = scan_wal(path)
    assert replay.clean
    total = threads * per_thread
    assert [r.lsn for r in replay.records] == list(range(1, total + 1))
    assert wal.lsn == total


def test_unsynced_append_is_visible_to_another_reader_on_return(tmp_path):
    """``sync=False`` skips the fsync, never the flush: once append returns,
    the record has left the process buffer and any other handle reads it,
    before any close, reset or drain."""
    path = wal_path(tmp_path)
    wal = PreferenceWAL(path, sync=False)
    first = wal.append("pref.add", {"user": "u"})
    assert scan_wal(path).records == [first]
    second = wal.append("pref.remove", {"user": "u", "name": "p"})
    assert scan_wal(path).records == [first, second]
    wal.close()


class TestFailStop:
    """A failed write/fsync poisons the log: no retries on dropped pages."""

    def test_failed_fsync_poisons_the_log(self, tmp_path):
        path = wal_path(tmp_path)
        wal = PreferenceWAL(path, sync=True)
        # One append is: write (step 0) then fsync (step 1).
        with use_vfs(FaultyVFS(VfsFault(1, "eio-fsync"))):
            with pytest.raises(DurabilityError):
                wal.append("pref.add", {"user": "u"})
        assert wal.poisoned is not None
        assert wal.lsn == 0  # the failed record was never acknowledged
        with pytest.raises(WALPoisoned):
            wal.append("pref.add", {"user": "v"})
        with pytest.raises(WALPoisoned):
            wal.reset()

    def test_power_cut_mid_append_poisons_the_log(self, tmp_path):
        path = wal_path(tmp_path)
        wal = PreferenceWAL(path, sync=True)
        with use_vfs(FaultyVFS(VfsFault(0, "power-cut"))):
            with pytest.raises(PowerCut):
                wal.append("pref.add", {"user": "u"})
        assert wal.poisoned is not None
        with pytest.raises(WALPoisoned):
            wal.append("pref.add", {"user": "v"})

    def test_recovery_is_a_fresh_open(self, tmp_path):
        path = wal_path(tmp_path)
        write_clean_log(path, count=2)
        wal, _ = PreferenceWAL.open(path, sync=True)
        with use_vfs(FaultyVFS(VfsFault(1, "eio-fsync"))):
            with pytest.raises(DurabilityError):
                wal.append("pref.add", {"user": "u"})
        # The poisoned instance stays dead; a fresh open rescans the file,
        # truncates whatever the failed append left, and continues the LSNs.
        reopened, replay = PreferenceWAL.open(path, sync=False)
        assert replay.last_lsn == 2
        assert reopened.append("pref.add", {"user": "u"}).lsn == 3
        reopened.close()

    def test_reset_crash_removes_its_temp_file(self, tmp_path):
        path = wal_path(tmp_path)
        wal = PreferenceWAL(path, sync=False)
        wal.append("pref.add", {"user": "u"})
        # reset is: write-less temp create + fsync (step 0) + replace + dir
        # fsync; fail the temp fsync and the temp must not survive.
        with use_vfs(FaultyVFS(VfsFault(0, "eio-fsync"))):
            with pytest.raises(DurabilityError):
                wal.reset()
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []


def test_record_encoding_is_checksummed_line(tmp_path):
    record = WalRecord(7, "pref.add", {"user": "alice"})
    line = record.encode()
    assert line.endswith("\n")
    checksum, body = line[:-1].split(" ", 1)
    assert len(checksum) == 16
    assert '"lsn":7' in body and '"op":"pref.add"' in body
