"""Column representation: lazily-transposed per-attribute columns.

Rows stay the storage of record (the engine's tables are row-major tuples);
a :class:`ColumnStore` materializes individual attribute columns on first
touch and keeps them for reuse.  For base tables the store is cached on the
owning :class:`~repro.engine.database.Database` keyed by the table name and
the database's monotonic ``version`` counter, so repeated queries share the
transposition work and any DDL/DML invalidates it.

:class:`ColumnarRelation` is the intermediate-result value of the columnar
executor: a schema, a row list, the parallel score-pair list, and a column
store over those rows.  Converting to/from :class:`PRelation` is free of
per-value work (the same row/pair lists are shared).
"""

from __future__ import annotations

from typing import Sequence

from ..core.prelation import PRelation
from ..core.scorepair import IDENTITY, ScorePair
from ..engine.schema import TableSchema
from ..engine.table import Row


class ColumnStore:
    """Per-attribute columns over a fixed row list, transposed lazily."""

    __slots__ = ("rows", "_columns", "_buckets")

    def __init__(self, rows: Sequence[Row]):
        self.rows = rows
        self._columns: dict[int, list] = {}
        self._buckets: dict[tuple[int, ...], dict[tuple, list[int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, index: int) -> list:
        """The values of attribute position *index*, one list entry per row."""
        column = self._columns.get(index)
        if column is None:
            column = [row[index] for row in self.rows]
            self._columns[index] = column
        return column

    def buckets(self, indices: tuple[int, ...]) -> dict[tuple, list[int]]:
        """Hash-join build side over the key columns at *indices*, memoized.

        Maps each key tuple to the row positions holding it, in row order.
        Positions index ``rows`` (and any parallel pair list), so a store
        shared between scans shares the build work: for base tables the
        memo lives as long as the cached store itself — until the next
        database mutation.
        """
        buckets = self._buckets.get(indices)
        if buckets is None:
            columns = [self.column(i) for i in indices]
            buckets = {}
            for j in range(len(self.rows)):
                key = tuple(column[j] for column in columns)
                buckets.setdefault(key, []).append(j)
            self._buckets[indices] = buckets
        return buckets

    def materialized_columns(self) -> tuple[int, ...]:
        """Positions already transposed (introspection for tests/EXPLAIN)."""
        return tuple(sorted(self._columns))


def column_store_for(db, name: str) -> ColumnStore:
    """The cached :class:`ColumnStore` of base table *name* on *db*.

    Cache entries are ``(version, store)``; any mutation bumps
    ``db.version`` and the next scan rebuilds.  Snapshots start with an
    empty cache of their own (they are fresh ``Database`` instances).
    """
    table = db.catalog.table(name)
    key = table.name.lower()
    cached = db.columnar_cache.get(key)
    if cached is not None and cached[0] == db.version:
        return cached[1]
    store = ColumnStore(list(table.rows))
    db.columnar_cache[key] = (db.version, store)
    return store


class ColumnarRelation:
    """A p-relation in columnar clothing: rows + pairs + a column store."""

    __slots__ = ("schema", "store", "pairs")

    def __init__(
        self,
        schema: TableSchema,
        store: ColumnStore,
        pairs: Sequence[ScorePair] | None = None,
    ):
        self.schema = schema
        self.store = store
        if pairs is None:
            self.pairs: list[ScorePair] = [IDENTITY] * len(store)
        else:
            self.pairs = list(pairs) if not isinstance(pairs, list) else pairs

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: Sequence[Row],
        pairs: Sequence[ScorePair] | None = None,
    ) -> "ColumnarRelation":
        return cls(schema, ColumnStore(rows), pairs)

    @classmethod
    def from_prelation(cls, relation: PRelation) -> "ColumnarRelation":
        return cls(relation.schema, ColumnStore(relation.rows), relation.pairs)

    @property
    def rows(self) -> Sequence[Row]:
        return self.store.rows

    def __len__(self) -> int:
        return len(self.store)

    def column(self, index: int) -> list:
        return self.store.column(index)

    def take(self, selection: Sequence[int]) -> "ColumnarRelation":
        """Apply a selection vector (sorted, unique, in-range positions)."""
        rows = self.store.rows
        pairs = self.pairs
        return ColumnarRelation.from_rows(
            self.schema,
            [rows[i] for i in selection],
            [pairs[i] for i in selection],
        )

    def to_prelation(self) -> PRelation:
        return PRelation(self.schema, list(self.rows), list(self.pairs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.schema.name or "<derived>"
        return f"ColumnarRelation({name}, {len(self)} rows)"
