"""The concurrency sanitizer: lock order, COW discipline, WAL protocol.

Three kinds of evidence:

* **Seeded negatives** — each SAN family has a test that plants the exact
  bug the sanitizer exists for (a lock inversion, a write to a
  snapshot-captured table without forking, an append acknowledged without
  its fsync) and asserts the exact diagnostic code comes out.
* **Clean positives** — the disciplined versions of the same interactions
  (ordered nesting, copy-on-write insert through the Database API, sync
  appends) produce zero findings, so the sanitizer can gate CI without
  crying wolf.
* **Plumbing** — install/use/restore semantics, dedup, the env switch.
"""

from __future__ import annotations

import threading

from repro.analysis_static.sanitizer import (
    NULL_SANITIZER,
    Sanitizer,
    current_sanitizer,
    env_sanitize_enabled,
    use_sanitizer,
)
from repro.serve.rwlock import RWLock
from repro.serve.wal import PreferenceWAL


def codes(sanitizer: Sanitizer) -> list[str]:
    return [finding.code for finding in sanitizer.findings]


# ---------------------------------------------------------------------------
# Lock-order graph (SAN1xx)
# ---------------------------------------------------------------------------


class TestLockOrder:
    def test_clean_nested_acquisition_has_no_findings(self):
        with use_sanitizer() as sanitizer:
            outer, inner = RWLock("outer"), RWLock("inner")
            for _ in range(3):
                with outer.write_locked(), inner.write_locked():
                    pass
        assert sanitizer.findings == []

    def test_lock_inversion_is_san101(self):
        # a→b in one critical section, b→a in a later one: no deadlock
        # happened on this run, but the interleaving that takes both first
        # hops concurrently deadlocks — that is the lockdep argument.
        with use_sanitizer() as sanitizer:
            a, b = RWLock("db.rwlock"), RWLock("server.rwlock")
            with a.write_locked(), b.write_locked():
                pass
            with b.write_locked(), a.write_locked():
                pass
        assert "SAN101" in codes(sanitizer)

    def test_inversion_across_threads_is_san101(self):
        with use_sanitizer() as sanitizer:
            a, b = RWLock("a"), RWLock("b")
            with a.read_locked(), b.read_locked():
                pass

            def inverted():
                with b.read_locked(), a.read_locked():
                    pass

            thread = threading.Thread(target=inverted)
            thread.start()
            thread.join()
        assert "SAN101" in codes(sanitizer)

    def test_reacquisition_is_san102_before_blocking(self):
        # The real acquire would deadlock (the lock is not reentrant), so
        # the test drives the hook the way acquire_write does: the report
        # must come from lock_acquiring — i.e. BEFORE the thread blocks —
        # or the sanitizer would hang right along with the bug.
        with use_sanitizer() as sanitizer:
            lock = RWLock("db.rwlock")
            lock.acquire_write()
            sanitizer.lock_acquiring(lock, "write", lock.name)
            lock.release_write()
        assert "SAN102" in codes(sanitizer)

    def test_release_without_hold_is_san103(self):
        with use_sanitizer() as sanitizer:
            lock = RWLock("orphan")
            sanitizer.lock_released(lock, "write")
        assert codes(sanitizer) == ["SAN103"]

    def test_duplicate_violations_reported_once(self):
        with use_sanitizer() as sanitizer:
            lock = RWLock("orphan")
            sanitizer.lock_released(lock, "write")
            sanitizer.lock_released(lock, "write")
        assert codes(sanitizer) == ["SAN103"]


# ---------------------------------------------------------------------------
# COW snapshot discipline (SAN2xx)
# ---------------------------------------------------------------------------


class TestSnapshotDiscipline:
    def test_cow_insert_through_database_api_is_clean(self, movie_db):
        with use_sanitizer() as sanitizer:
            snapshot = movie_db.snapshot()
            movie_db.insert("MOVIES", (99, "New Movie", 2024, 101, 1))
            assert len(snapshot.catalog.table("MOVIES").rows) == 5
            assert len(movie_db.catalog.table("MOVIES").rows) == 6
        assert sanitizer.findings == []

    def test_write_to_captured_table_is_san201(self, movie_db):
        with use_sanitizer() as sanitizer:
            movie_db.snapshot()
            table = movie_db.catalog.table("MOVIES")
            # Simulate the fork discipline failing: the freeze flag is the
            # first line of defense, so a buggy path that cleared it (or
            # never set it) is exactly what the sanitizer must catch.
            table._frozen = False
            table.insert((99, "Torn Write", 2024, 101, 1))
        assert "SAN201" in codes(sanitizer)

    def test_mutation_of_captured_index_is_san202(self, movie_db_indexed):
        with use_sanitizer() as sanitizer:
            movie_db_indexed.snapshot()
            index = movie_db_indexed.catalog.indexes_on("MOVIES")[0]
            index.add((99, "Torn Index", 2024, 101, 1))
        assert "SAN202" in codes(sanitizer)

    def test_fresh_tables_after_fork_are_not_captured(self, movie_db):
        with use_sanitizer() as sanitizer:
            movie_db.snapshot()
            movie_db.insert("MOVIES", (98, "A", 2020, 90, 1))
            # The first insert forked MOVIES; the live side now owns a
            # fresh table object that later writes may mutate freely.
            movie_db.insert("MOVIES", (99, "B", 2021, 95, 1))
        assert sanitizer.findings == []


# ---------------------------------------------------------------------------
# WAL protocol (SAN3xx)
# ---------------------------------------------------------------------------


class TestWalProtocol:
    def test_sync_appends_are_clean(self, tmp_path):
        with use_sanitizer() as sanitizer:
            wal = PreferenceWAL(str(tmp_path / "clean.wal"), sync=True)
            for index in range(3):
                wal.append("add", {"n": index})
            wal.close()
        assert sanitizer.findings == []

    def test_nosync_appends_are_clean(self, tmp_path):
        with use_sanitizer() as sanitizer:
            wal = PreferenceWAL(str(tmp_path / "nosync.wal"), sync=False)
            wal.append("add", {"n": 0})
            wal.close()
        assert sanitizer.findings == []

    def test_lsn_gap_is_san301(self, tmp_path):
        with use_sanitizer() as sanitizer:
            wal = PreferenceWAL(str(tmp_path / "gap.wal"), sync=True)
            wal.append("add", {"n": 0})
            wal._lsn += 3  # a buggy assignment path skips LSNs
            wal.append("add", {"n": 1})
            wal.close()
        assert "SAN301" in codes(sanitizer)

    def test_lsn_continues_across_reset(self, tmp_path):
        # A checkpoint truncates the log but LSN assignment continues —
        # the sanitizer must treat the post-reset append as contiguous.
        with use_sanitizer() as sanitizer:
            wal = PreferenceWAL(str(tmp_path / "reset.wal"), sync=True)
            wal.append("add", {"n": 0})
            wal.reset()
            record = wal.append("add", {"n": 1})
            wal.close()
        assert record.lsn == 2
        assert sanitizer.findings == []

    def test_skipped_fsync_is_san302(self, tmp_path):
        class BuggyWAL(PreferenceWAL):
            def _fsync(self, handle):
                pass  # "optimized away" the durability point

        with use_sanitizer() as sanitizer:
            wal = BuggyWAL(str(tmp_path / "buggy.wal"), sync=True)
            wal.append("add", {"n": 0})
            wal.close()
        assert "SAN302" in codes(sanitizer)

    def test_overlapping_appends_are_san303(self):
        sanitizer = Sanitizer()
        wal = object()
        sanitizer.wal_append_begin(wal, 1)

        def overlap():
            sanitizer.wal_append_begin(wal, 2)

        thread = threading.Thread(target=overlap)
        thread.start()
        thread.join()
        assert "SAN303" in codes(sanitizer)


# ---------------------------------------------------------------------------
# Installation semantics and chaos integration
# ---------------------------------------------------------------------------


class TestInstallation:
    def test_use_sanitizer_restores_previous(self):
        before = current_sanitizer()
        with use_sanitizer() as sanitizer:
            assert current_sanitizer() is sanitizer
            assert sanitizer.enabled
        assert current_sanitizer() is before

    def test_null_sanitizer_is_disabled_noop(self):
        assert not NULL_SANITIZER.enabled
        NULL_SANITIZER.lock_released(object(), "write")  # must not raise
        assert NULL_SANITIZER.findings == []

    def test_env_switch_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True),
            ("true", True),
            ("YES", True),
            (" on ", True),
            ("0", False),
            ("", False),
            ("off", False),
        ):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert env_sanitize_enabled() is expected
        monkeypatch.delenv("REPRO_SANITIZE")
        assert env_sanitize_enabled() is False

    def test_describe_mentions_findings(self):
        with use_sanitizer() as sanitizer:
            sanitizer.lock_released(RWLock("x"), "read")
        assert "SAN103" in sanitizer.describe()


class TestChaosIntegration:
    def test_chaos_run_with_sanitizer_is_finding_free(self):
        from repro.resilience.chaos_concurrent import run_concurrent_chaos

        report = run_concurrent_chaos(
            seed=7, scale=0.0005, writers=2, readers=2, queries_per_reader=2,
            sanitize=True,
        )
        assert report.ok, report.describe()

    def test_chaos_report_carries_sanitizer_findings(self, monkeypatch):
        # Plant a violation inside the run to prove findings fail it.
        from repro.resilience import chaos_concurrent

        original = chaos_concurrent._base_preference

        def sabotaged():
            current_sanitizer().lock_released(RWLock("planted"), "write")
            return original()

        monkeypatch.setattr(chaos_concurrent, "_base_preference", sabotaged)
        report = chaos_concurrent.run_concurrent_chaos(
            seed=7, scale=0.0005, writers=1, readers=1, queries_per_reader=1,
            sanitize=True,
        )
        assert not report.ok
        assert any("SAN103" in error for error in report.errors)
