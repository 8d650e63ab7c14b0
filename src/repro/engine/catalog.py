"""The catalog: tables, indexes and statistics, keyed by name."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import CatalogError
from .index import Index, build_index
from .schema import TableSchema
from .stats import TableStats, analyze_table
from .table import Table


class Catalog:
    """Registry of tables, their secondary indexes and their statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, list[Index]] = {}
        self._stats: dict[str, TableStats] = {}

    # -- tables ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register a new empty table for *schema*; names are unique."""
        key = self._key(schema.name or "")
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        self._indexes[key] = []
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table together with its indexes and statistics."""
        key = self._key(name)
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        del self._indexes[key]
        self._stats.pop(key, None)

    def table(self, name: str) -> Table:
        """Look up a table by case-insensitive name (raises CatalogError)."""
        key = self._key(name)
        table = self._tables.get(key)
        if table is None:
            raise CatalogError(f"table {name!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        """True when a table of that name exists."""
        return self._key(name) in self._tables

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(table.name for table in self._tables.values())

    def tables(self) -> Iterable[Table]:
        """All registered tables (unspecified order)."""
        return self._tables.values()

    # -- snapshots ---------------------------------------------------------------

    def fork(self) -> "Catalog":
        """A catalog sharing table/index/stats *objects* but no containers.

        This is the copy-on-write snapshot step: the fork and the original
        see the same (frozen) tables until a writer replaces one via
        :meth:`replace_table`; registry mutations (create/drop table or
        index, fresh statistics) on either side never surface on the other.
        """
        clone = Catalog()
        clone._tables = dict(self._tables)
        clone._indexes = {key: list(indexes) for key, indexes in self._indexes.items()}
        clone._stats = dict(self._stats)
        return clone

    def replace_table(self, table: Table) -> None:
        """Swap in a forked table and rebuild its secondary indexes fresh.

        The old table's Index objects keep serving any snapshot that shares
        them; the replacement gets brand-new indexes over its own rows so
        in-place index rebuilds after future bulk loads cannot leak across
        the snapshot boundary.
        """
        key = self._key(table.name)
        if key not in self._tables:
            raise CatalogError(f"table {table.name!r} does not exist")
        old_indexes = self._indexes.get(key, [])
        self._tables[key] = table
        self._indexes[key] = [
            build_index(table, index.attrs, index.kind) for index in old_indexes
        ]

    # -- indexes ---------------------------------------------------------------

    def create_index(self, table_name: str, attrs: Sequence[str] | str, kind: str = "hash") -> Index:
        """Build and register a secondary index over *attrs* of a table."""
        table = self.table(table_name)
        index = build_index(table, attrs, kind)
        existing = self._indexes[self._key(table_name)]
        if any(i.attrs == index.attrs and i.kind == index.kind for i in existing):
            raise CatalogError(f"index {index.name!r} already exists")
        existing.append(index)
        return index

    def indexes_on(self, table_name: str) -> list[Index]:
        """All secondary indexes of a table (empty list when none)."""
        return list(self._indexes.get(self._key(table_name), []))

    def find_index(self, table_name: str, attr: str, kind: str | None = None) -> Index | None:
        """An index whose leading column is *attr* (optionally of a given kind)."""
        wanted = attr.rsplit(".", 1)[-1].lower()
        for index in self._indexes.get(self._key(table_name), []):
            if index.attrs[0].rsplit(".", 1)[-1].lower() != wanted:
                continue
            if kind is None or index.kind == kind:
                return index
        return None

    def rebuild_indexes(self, table_name: str) -> None:
        """Refresh index contents after bulk loads."""
        for index in self._indexes.get(self._key(table_name), []):
            index._build()

    def index_row(self, table_name: str, row) -> None:
        """Incrementally add one freshly inserted row to the table's indexes.

        Only ever touches live-side indexes: a COW fork rebuilds fresh Index
        objects via replace_table before any post-snapshot insert reaches
        here, so snapshots never share the mutated structures.
        """
        for index in self._indexes.get(self._key(table_name), []):
            index.add(row)

    # -- statistics --------------------------------------------------------------

    def analyze(self, table_name: str | None = None) -> None:
        """Collect statistics for one table, or for all tables when omitted."""
        if table_name is None:
            for table in list(self._tables.values()):
                self._stats[self._key(table.name)] = analyze_table(table)
            return
        table = self.table(table_name)
        self._stats[self._key(table.name)] = analyze_table(table)

    def stats(self, table_name: str) -> TableStats | None:
        """Collected statistics, or ``None`` before :meth:`analyze`."""
        return self._stats.get(self._key(table_name))

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()
