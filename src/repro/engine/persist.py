"""Saving and loading databases, durably.

A database directory contains ``schema.json`` (tables: columns, types,
primary keys, secondary indexes, row counts and content checksums) and one
``<TABLE>.jsonl`` file per table with one JSON-array row per line —
lossless for all supported types including NULL, unlike CSV.

Durability guarantees (see ``docs/RESILIENCE.md``):

* :func:`save_database` is **atomic per file**: every table file and the
  manifest are written to a temp file, fsync'd, then renamed into place, so
  a crash mid-save can never leave a half-written file under the final
  name.  The manifest is written last, so a crash between table writes
  leaves the *previous* manifest describing the previous (complete) files.
* The format-2 manifest records each table's row count and the SHA-256 of
  its data file.  :func:`load_database` verifies both and reports
  truncation or corruption as a typed :exc:`~repro.errors.DataCorruption`
  naming the exact file and line.
* **Salvage mode** (``load_database(..., salvage=True)``) loads what it
  can, skipping unparseable or schema-violating rows, and attaches a
  :class:`RecoveryReport` to the returned database (``db.recovery``).

:func:`load_csv_table` additionally imports plain CSV files into an
existing table, with type coercion driven by the declared schema; the
import is all-or-nothing — a coercion error anywhere in the file leaves
the table (and its indexes) untouched.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import CatalogError, DataCorruption, DurabilityError, ReproError
from ..resilience.vfs import current_vfs
from .database import Database
from .types import DataType

SCHEMA_FILE = "schema.json"

#: Manifest formats this module can read: format 2 (row counts and
#: checksums), the one :func:`save_database` writes.  The checksum-less
#: format 1 is refused as unsupported.
SUPPORTED_FORMATS = (2,)
CURRENT_FORMAT = 2

#: Process-wide temp-name disambiguator: together with the pid it makes
#: concurrent :func:`_atomic_write` calls (threads, sibling processes
#: saving into the same directory) collision-safe.
_TMP_COUNTER = itertools.count()


def _atomic_write(path: str, data: str) -> None:
    """Write *data* to *path* via temp file + fsync + rename, through the VFS.

    After the rename the new content is durably on disk under its final
    name; readers never observe a partially written file.  The temp name
    carries a pid + counter suffix so concurrent writers never collide,
    and a failed write or fsync removes the temp file before the typed
    :exc:`~repro.errors.DurabilityError` propagates — no stale ``.tmp``
    litter for a later save to trip over.
    """
    vfs = current_vfs()
    tmp_path = f"{path}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
    try:
        with vfs.open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            vfs.fsync(handle)
        vfs.replace(tmp_path, path)
    except OSError as err:
        try:
            vfs.remove(tmp_path)
        except OSError:
            pass
        raise DurabilityError("write", path, str(err)) from err
    # Persist the rename itself.  A real I/O failure here means the file
    # may still be durable under its *old* name only, so it must surface
    # (platform limitations are swallowed inside fsync_dir).
    try:
        vfs.fsync_dir(os.path.dirname(path) or ".")
    except OSError as err:
        raise DurabilityError("fsync-dir", path, str(err)) from err


def _checksum(data: str) -> str:
    return "sha256:" + hashlib.sha256(data.encode("utf-8")).hexdigest()


def save_database(db: Database, directory: str) -> None:
    """Write *db* (schemas, data, index definitions) under *directory*.

    Atomic per file: table files land before the manifest that describes
    them, and every file is temp-written, fsync'd and renamed into place.
    """
    current_vfs().makedirs(directory)
    manifest: dict = {"format": CURRENT_FORMAT, "tables": []}
    for table in sorted(db.catalog.tables(), key=lambda t: t.name):
        schema = table.schema
        payload = "".join(json.dumps(list(row)) + "\n" for row in table.rows)
        manifest["tables"].append(
            {
                "name": table.name,
                "columns": [
                    {"name": c.name, "type": c.dtype.value} for c in schema.columns
                ],
                "primary_key": list(schema.primary_key),
                "indexes": [
                    {"attrs": list(index.attrs), "kind": index.kind}
                    for index in db.catalog.indexes_on(table.name)
                ],
                "rows": len(table.rows),
                "checksum": _checksum(payload),
            }
        )
        _atomic_write(os.path.join(directory, f"{table.name}.jsonl"), payload)
    _atomic_write(
        os.path.join(directory, SCHEMA_FILE), json.dumps(manifest, indent=2)
    )


@dataclass
class TableRecovery:
    """Salvage outcome for one table."""

    table: str
    path: str
    rows_loaded: int = 0
    rows_skipped: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class RecoveryReport:
    """What salvage-mode loading managed to rescue, table by table."""

    tables: list[TableRecovery] = field(default_factory=list)

    @property
    def rows_loaded(self) -> int:
        return sum(t.rows_loaded for t in self.tables)

    @property
    def rows_skipped(self) -> int:
        return sum(t.rows_skipped for t in self.tables)

    @property
    def clean(self) -> bool:
        """True when nothing had to be skipped or repaired."""
        return all(not t.rows_skipped and not t.problems for t in self.tables)

    def describe(self) -> str:
        lines = []
        for entry in self.tables:
            status = "ok" if not entry.rows_skipped and not entry.problems else "salvaged"
            lines.append(
                f"{entry.table:<16} {entry.rows_loaded:>8} loaded "
                f"{entry.rows_skipped:>6} skipped  [{status}]"
            )
            for problem in entry.problems:
                lines.append(f"    - {problem}")
        lines.append(
            f"total: {self.rows_loaded} rows loaded, {self.rows_skipped} skipped"
        )
        return "\n".join(lines)


def load_database(directory: str, analyze: bool = True, *, salvage: bool = False) -> Database:
    """Rebuild a database saved with :func:`save_database`.

    Data files are verified against the manifest's checksums and row counts
    (format 2); truncated or corrupt content raises
    :exc:`~repro.errors.DataCorruption` naming the exact file and line.
    With ``salvage=True``, bad rows are skipped instead and the returned
    database carries a :class:`RecoveryReport` as ``db.recovery``
    (``db.recovery`` is ``None`` on non-salvage loads).
    """
    vfs = current_vfs()
    manifest_path = os.path.join(directory, SCHEMA_FILE)
    if not vfs.exists(manifest_path):
        raise ReproError(f"no {SCHEMA_FILE} found in {directory!r}")
    with vfs.open(manifest_path, encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except ValueError as err:
            raise DataCorruption(
                f"manifest is not valid JSON: {err}", path=manifest_path
            ) from err
    if manifest.get("format") not in SUPPORTED_FORMATS:
        raise ReproError(f"unsupported database format {manifest.get('format')!r}")

    report = RecoveryReport()
    db = Database()
    db.recovery = report if salvage else None
    for entry in manifest["tables"]:
        columns = [(c["name"], DataType(c["type"])) for c in entry["columns"]]
        table = db.create_table(entry["name"], columns, primary_key=entry["primary_key"])
        path = os.path.join(directory, f"{entry['name']}.jsonl")
        recovery = TableRecovery(table=table.name, path=path)
        report.tables.append(recovery)
        if vfs.exists(path):
            _load_table_file(db, entry, path, salvage, recovery)
        elif entry.get("rows"):
            problem = f"data file missing ({entry['rows']} rows lost)"
            if not salvage:
                raise DataCorruption(problem, path=path)
            recovery.rows_skipped += entry["rows"]
            recovery.problems.append(problem)
        for index in entry.get("indexes", ()):
            db.create_index(entry["name"], index["attrs"], index["kind"])
    if analyze:
        db.analyze()
    return db


def _load_table_file(
    db: Database, entry: dict, path: str, salvage: bool, recovery: TableRecovery
) -> None:
    """Verify and load one table's jsonl file (or salvage what parses)."""
    with current_vfs().open(path, encoding="utf-8") as handle:
        payload = handle.read()

    width = len(entry["columns"])
    rows: list[tuple] = []
    for line_number, line in enumerate(payload.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values = json.loads(line)
        except ValueError as err:
            problem = f"unparseable row ({err})"
            if not salvage:
                raise DataCorruption(problem, path=path, line=line_number) from err
            recovery.rows_skipped += 1
            recovery.problems.append(f"line {line_number}: {problem}")
            continue
        if not isinstance(values, list) or len(values) != width:
            problem = f"row has {_arity(values)} values, schema expects {width}"
            if not salvage:
                raise DataCorruption(problem, path=path, line=line_number)
            recovery.rows_skipped += 1
            recovery.problems.append(f"line {line_number}: {problem}")
            continue
        rows.append(tuple(values))

    expected_rows = entry.get("rows")
    if (
        expected_rows is not None
        and recovery.rows_skipped == 0
        and len(rows) != expected_rows
    ):
        problem = (
            f"row count mismatch: file has {len(rows)} rows, "
            f"manifest recorded {expected_rows} (truncated file?)"
        )
        if not salvage:
            raise DataCorruption(problem, path=path, line=len(rows) + 1)
        recovery.problems.append(problem)

    # Checksum last: line-level checks above give more precise locations,
    # so the checksum only catches tampering that still parses cleanly.
    expected_checksum = entry.get("checksum")
    if expected_checksum is not None and _checksum(payload) != expected_checksum:
        problem = (
            f"checksum mismatch: file does not match the manifest "
            f"(expected {expected_checksum})"
        )
        if not salvage:
            raise DataCorruption(problem, path=path)
        recovery.problems.append(problem)

    if not salvage:
        db.insert_many(entry["name"], rows)
        recovery.rows_loaded = len(rows)
        return
    # Salvage inserts row by row: a row the schema rejects (type mismatch,
    # NULL/duplicate primary key) is skipped and reported, not fatal.
    for values in rows:
        try:
            db.insert(entry["name"], values)
            recovery.rows_loaded += 1
        except ReproError as err:
            recovery.rows_skipped += 1
            recovery.problems.append(f"row {values!r} rejected: {err}")


def _arity(values) -> str:
    return str(len(values)) if isinstance(values, list) else f"non-array {type(values).__name__}"


def load_csv_table(
    db: Database,
    table_name: str,
    path: str,
    has_header: bool = True,
    null_token: str = "",
    delimiter: str = ",",
) -> int:
    """Bulk-load a CSV file into an existing table; returns rows inserted.

    Values are coerced by the table schema: INT/FLOAT parsed, BOOL accepts
    true/false/1/0 (case-insensitive), *null_token* becomes NULL.  A header
    row, when present, must list the table's columns (any order).

    The load is **all-or-nothing**: every row is parsed and coerced before
    any is inserted, and the rows go in through one
    :meth:`Database.insert_many`, which stores none of them when one is
    rejected (e.g. a duplicate primary key), so an error can never leave
    the table half-loaded with stale indexes.
    """
    table = db.table(table_name)
    schema = table.schema
    staged: list[list] = []
    with current_vfs().open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        order: Sequence[int] | None = None
        for line_number, record in enumerate(reader, start=1):
            if not record:
                continue
            if has_header and line_number == 1:
                order = [schema.index_of(name.strip()) for name in record]
                continue
            if order is not None:
                if len(record) != len(order):
                    raise CatalogError(
                        f"{path}:{line_number}: expected {len(order)} fields"
                    )
                values: list = [None] * len(schema.columns)
                for position, text in zip(order, record):
                    values[position] = _coerce(text, schema.columns[position].dtype, null_token)
            else:
                values = [
                    _coerce(text, column.dtype, null_token)
                    for text, column in zip(record, schema.columns)
                ]
            staged.append(values)
    # The whole file parsed: one all-or-nothing Database write, so it takes
    # the write lock, forks a snapshot-shared table, refreshes the indexes
    # and bumps the version exactly like any other insert.
    return db.insert_many(table_name, staged)


def _coerce(text: str, dtype: DataType, null_token: str):
    if text == null_token:
        return None
    if dtype is DataType.INT:
        return int(text)
    if dtype is DataType.FLOAT:
        return float(text)
    if dtype is DataType.BOOL:
        lowered = text.strip().lower()
        if lowered in ("true", "1", "t", "yes"):
            return True
        if lowered in ("false", "0", "f", "no"):
            return False
        raise CatalogError(f"cannot parse boolean {text!r}")
    return text
