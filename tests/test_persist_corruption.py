"""Durable persistence: atomicity, checksums, corruption detection, salvage."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DataType
from repro.engine.persist import (
    SCHEMA_FILE,
    load_csv_table,
    load_database,
    save_database,
)
from repro.errors import CatalogError, DataCorruption, ReproError
from repro.query.session import Session


def make_db(rows) -> Database:
    db = Database()
    db.create_table(
        "ITEMS",
        [
            ("i_id", DataType.INT),
            ("label", DataType.TEXT),
            ("weight", DataType.FLOAT),
            ("active", DataType.BOOL),
        ],
        primary_key=["i_id"],
    )
    db.insert_many("ITEMS", rows)
    db.analyze()
    return db


SAMPLE_ROWS = [
    (1, "alpha", 1.5, True),
    (2, "beta", None, False),
    (3, "gamma, with commas", 0.0, None),
]


def items_file(directory) -> str:
    return os.path.join(str(directory), "ITEMS.jsonl")


# ---------------------------------------------------------------------------
# Round-trip property
# ---------------------------------------------------------------------------

row_values = st.tuples(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.one_of(st.none(), st.text(max_size=20)),
    st.one_of(
        st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)
    ),
    st.one_of(st.none(), st.booleans()),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(row_values, max_size=25, unique_by=lambda r: r[0]))
def test_roundtrip_preserves_every_row(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("rt")
    db = make_db(rows)
    save_database(db, str(directory))
    loaded = load_database(str(directory))
    assert loaded.table("ITEMS").rows == db.table("ITEMS").rows
    assert loaded.recovery is None


# ---------------------------------------------------------------------------
# Atomic save + manifest contents
# ---------------------------------------------------------------------------


class TestSave:
    def test_no_temp_files_left_behind(self, tmp_path):
        save_database(make_db(SAMPLE_ROWS), str(tmp_path))
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_manifest_records_counts_and_checksums(self, tmp_path):
        save_database(make_db(SAMPLE_ROWS), str(tmp_path))
        manifest = json.loads((tmp_path / SCHEMA_FILE).read_text())
        assert manifest["format"] == 2
        (entry,) = manifest["tables"]
        assert entry["rows"] == 3
        assert entry["checksum"].startswith("sha256:")

    def test_resave_overwrites_cleanly(self, tmp_path):
        save_database(make_db(SAMPLE_ROWS), str(tmp_path))
        save_database(make_db(SAMPLE_ROWS[:1]), str(tmp_path))
        assert len(load_database(str(tmp_path)).table("ITEMS")) == 1


# ---------------------------------------------------------------------------
# Corruption detection (strict mode)
# ---------------------------------------------------------------------------


@pytest.fixture
def saved(tmp_path):
    save_database(make_db(SAMPLE_ROWS), str(tmp_path))
    return tmp_path


class TestCorruptionDetection:
    def test_truncated_file_names_file_and_line(self, saved):
        path = items_file(saved)
        lines = open(path).readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:-1])
        with pytest.raises(DataCorruption) as excinfo:
            load_database(str(saved))
        assert excinfo.value.path == path
        assert path in str(excinfo.value)

    def test_garbage_line_is_located_exactly(self, saved):
        path = items_file(saved)
        lines = open(path).readlines()
        lines[1] = "{{{ not json\n"
        open(path, "w").writelines(lines)
        with pytest.raises(DataCorruption) as excinfo:
            load_database(str(saved))
        assert excinfo.value.line == 2
        assert f"{path}:2" in str(excinfo.value)

    def test_arity_mismatch_detected(self, saved):
        path = items_file(saved)
        lines = open(path).readlines()
        lines[0] = "[1]\n"
        open(path, "w").writelines(lines)
        with pytest.raises(DataCorruption) as excinfo:
            load_database(str(saved))
        assert "schema expects 4" in str(excinfo.value)

    def test_content_tamper_trips_checksum(self, saved):
        path = items_file(saved)
        text = open(path).read().replace("alpha", "ALPHA")
        open(path, "w").write(text)
        with pytest.raises(DataCorruption) as excinfo:
            load_database(str(saved))
        assert "checksum mismatch" in str(excinfo.value)

    def test_missing_data_file_detected(self, saved):
        os.remove(items_file(saved))
        with pytest.raises(DataCorruption) as excinfo:
            load_database(str(saved))
        assert "data file missing" in str(excinfo.value)

    def test_unknown_manifest_format_rejected(self, saved):
        manifest = json.loads((saved / SCHEMA_FILE).read_text())
        manifest["format"] = 99
        (saved / SCHEMA_FILE).write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="unsupported database format"):
            load_database(str(saved))

    def test_unparseable_manifest_is_corruption(self, saved):
        (saved / SCHEMA_FILE).write_text("not json {")
        with pytest.raises(DataCorruption, match="manifest is not valid JSON"):
            load_database(str(saved))

    def test_format_1_manifest_is_refused(self, saved):
        manifest = json.loads((saved / SCHEMA_FILE).read_text())
        manifest["format"] = 1
        for entry in manifest["tables"]:
            del entry["rows"], entry["checksum"]
        (saved / SCHEMA_FILE).write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match="unsupported database format 1"):
            load_database(str(saved))


# ---------------------------------------------------------------------------
# Salvage mode
# ---------------------------------------------------------------------------


class TestSalvage:
    def test_clean_load_reports_clean(self, saved):
        db = load_database(str(saved), salvage=True)
        assert db.recovery.clean
        assert db.recovery.rows_loaded == 3
        assert db.recovery.rows_skipped == 0

    def test_bad_rows_are_skipped_and_counted(self, saved):
        path = items_file(saved)
        lines = open(path).readlines()
        lines[1] = "%% garbage %%\n"
        lines.append("[9]\n")
        open(path, "w").writelines(lines)
        db = load_database(str(saved), salvage=True)
        report = db.recovery
        assert len(db.table("ITEMS")) == 2
        assert report.rows_loaded == 2
        assert report.rows_skipped == 2
        assert not report.clean
        assert any("line 2" in p for p in report.tables[0].problems)
        text = report.describe()
        assert "2 loaded" in text and "salvaged" in text

    def test_schema_violating_row_is_skipped(self, saved):
        path = items_file(saved)
        with open(path, "a") as handle:
            handle.write('[1, "duplicate pk", 0.5, true]\n')
        db = load_database(str(saved), salvage=True)
        assert len(db.table("ITEMS")) == 3
        assert db.recovery.rows_skipped == 1
        assert any("rejected" in p for p in db.recovery.tables[0].problems)

    def test_missing_file_salvages_to_empty_table(self, saved):
        os.remove(items_file(saved))
        db = load_database(str(saved), salvage=True)
        assert len(db.table("ITEMS")) == 0
        assert db.recovery.rows_skipped == 3


# ---------------------------------------------------------------------------
# CSV staging (all-or-nothing)
# ---------------------------------------------------------------------------


class TestCsvStaging:
    def write_csv(self, tmp_path, body: str):
        path = tmp_path / "items.csv"
        path.write_text("i_id,label,weight,active\n" + body)
        return str(path)

    def test_good_file_loads_fully(self, tmp_path):
        db = make_db([])
        path = self.write_csv(tmp_path, "1,one,1.0,true\n2,two,,false\n")
        assert load_csv_table(db, "ITEMS", path) == 2
        assert db.table("ITEMS").rows[1] == (2, "two", None, False)

    def test_coercion_error_leaves_table_untouched(self, tmp_path):
        db = make_db(SAMPLE_ROWS)
        before = list(db.table("ITEMS").rows)
        path = self.write_csv(tmp_path, "10,ok,1.0,true\n11,bad,not-a-float,true\n")
        with pytest.raises(ValueError):
            load_csv_table(db, "ITEMS", path)
        assert db.table("ITEMS").rows == before

    def test_insert_error_rolls_back_partial_progress(self, tmp_path):
        db = make_db(SAMPLE_ROWS)
        table = db.table("ITEMS")
        before_rows = list(table.rows)
        before_pk = dict(table._pk_map)
        # Row 10 would insert fine; row 1 collides with an existing key.
        path = self.write_csv(tmp_path, "10,ok,1.0,true\n1,dup,1.0,true\n")
        with pytest.raises(CatalogError):
            load_csv_table(db, "ITEMS", path)
        assert table.rows == before_rows
        assert table._pk_map == before_pk
        assert table.get((10,)) is None

    def test_load_bumps_version_so_warm_columnar_cache_refreshes(self, tmp_path):
        db = make_db(SAMPLE_ROWS[:1])
        session = Session(db)
        sql = "SELECT i_id, label FROM ITEMS"
        assert session.execute(sql, columnar=True).relation.rows == [(1, "alpha")]
        version = db.version
        path = self.write_csv(tmp_path, "4,delta,1.0,true\n5,eps,2.0,false\n")
        assert load_csv_table(db, "ITEMS", path) == 2
        assert db.version == version + 1
        columnar = session.execute(sql, columnar=True)
        assert columnar.stats.mode == "columnar"
        assert sorted(columnar.relation.rows) == sorted(session.execute(sql).relation.rows)
        assert len(columnar.relation.rows) == 3

    def test_load_into_snapshot_captured_table_copies_on_write(self, tmp_path):
        db = make_db(SAMPLE_ROWS)
        db.create_index("ITEMS", "label")
        snap = db.snapshot()
        path = self.write_csv(tmp_path, "4,alpha,1.0,true\n")
        assert load_csv_table(db, "ITEMS", path) == 1
        assert db.table("ITEMS").get((4,)) == (4, "alpha", 1.0, True)
        assert [r[0] for r in db.catalog.find_index("ITEMS", "label").lookup("alpha")] == [1, 4]
        assert snap.table("ITEMS").rows == SAMPLE_ROWS
        assert snap.table("ITEMS").get((4,)) is None
        assert [r[0] for r in snap.catalog.find_index("ITEMS", "label").lookup("alpha")] == [1]

    def test_rollback_keeps_point_lookups_working(self, tmp_path):
        db = make_db(SAMPLE_ROWS)
        path = self.write_csv(tmp_path, "1,dup,1.0,true\n")
        with pytest.raises(CatalogError):
            load_csv_table(db, "ITEMS", path)
        assert db.table("ITEMS").get((1,)) == SAMPLE_ROWS[0]
        db.insert_many("ITEMS", [(4, "delta", 2.0, True)])
        assert db.table("ITEMS").get((4,)) == (4, "delta", 2.0, True)
