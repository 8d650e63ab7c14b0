"""Heap tables: validated, append-only row storage with primary-key lookup."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import CatalogError, SchemaError, TypeError_
from .schema import TableSchema

Row = tuple


def row_getter(positions: Sequence[int]) -> Callable[[Row], tuple]:
    """``row -> tuple(row[i] for i in positions)``, built once per operator.

    Operators build this kernel once and apply it to every row (``map``),
    instead of running a generator expression per row.  ``itemgetter``
    returns a scalar for a single position, so that case is wrapped.
    """
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


class Table:
    """An in-memory heap of row tuples conforming to a :class:`TableSchema`.

    Rows are stored as plain tuples in insertion order.  When the schema
    declares a primary key, uniqueness is enforced and a hash map from key
    values to rows supports point lookups and join probes.
    """

    def __init__(self, schema: TableSchema):
        if schema.name is None:
            raise SchemaError("a stored table requires a schema name")
        self.schema = schema
        self.rows: list[Row] = []
        self._pk_indexes = schema.primary_key_indexes()
        #: ``row -> key``: the bare value for a one-column key, a tuple for more.
        self._pk_of = itemgetter(*self._pk_indexes) if self._pk_indexes else None
        self._pk_bare = len(self._pk_indexes) == 1
        #: Primary key → row.  Joins probe it directly (see :meth:`key_map`).
        self._pk_map: dict[Any, Row] = {}
        self._frozen = False

    @property
    def name(self) -> str:
        assert self.schema.name is not None
        return self.schema.name

    def __len__(self) -> int:
        return len(self.rows)

    # -- snapshots -------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once a snapshot captured this table (writes must fork first)."""
        return self._frozen

    def freeze(self) -> None:
        """Mark the table immutable: it is now shared with a snapshot.

        Further :meth:`insert` calls raise; :class:`~repro.engine.database.
        Database` write paths fork a private copy first (copy-on-write), so
        snapshot readers keep seeing exactly the rows they captured.
        """
        self._frozen = True

    def fork(self) -> "Table":
        """A mutable copy sharing nothing writable with this table.

        Row tuples themselves are immutable and therefore shared; the row
        list and primary-key map are copied, so appends to the fork never
        surface in a frozen original.
        """
        clone = Table(self.schema)
        clone.rows = list(self.rows)
        clone._pk_map = dict(self._pk_map)
        return clone

    # -- mutation ------------------------------------------------------------

    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        """Validate and append one row; returns the stored tuple."""
        (row,) = self._append([values])
        return row

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Validate and append rows, all or nothing: a row the schema or the
        primary key rejects raises before any row is stored."""
        return len(self._append(rows))

    def _append(self, batch: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[Row]:
        if self._frozen:
            raise CatalogError(
                f"table {self.name} is frozen (captured by a snapshot); "
                "write through Database for copy-on-write semantics"
            )
        rows = []
        added: dict[Any, Row] = {}
        key_of, pk_map = self._pk_of, self._pk_map
        for values in batch:
            row = self._coerce(values)
            if key_of is not None:
                key = key_of(row)
                if (key is None) if self._pk_bare else (None in key):
                    raise TypeError_(
                        f"primary key of {self.name} cannot contain NULL: "
                        f"{self.primary_key_of(row)!r}"
                    )
                if key in pk_map or key in added:
                    raise CatalogError(
                        f"duplicate primary key {self.primary_key_of(row)!r} "
                        f"in table {self.name}"
                    )
                added[key] = row
            rows.append(row)
        pk_map.update(added)
        self.rows.extend(rows)
        return rows

    def _coerce(self, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        columns = self.schema.columns
        if isinstance(values, Mapping):
            lowered = {k.lower(): v for k, v in values.items()}
            unknown = set(lowered) - {c.name.lower() for c in columns}
            if unknown:
                raise SchemaError(f"unknown columns {sorted(unknown)} for table {self.name}")
            ordered = [lowered.get(c.name.lower()) for c in columns]
        else:
            if len(values) != len(columns):
                raise SchemaError(
                    f"table {self.name} expects {len(columns)} values, got {len(values)}"
                )
            ordered = list(values)
        return tuple(c.dtype.validate(v) for c, v in zip(columns, ordered))

    # -- access ---------------------------------------------------------------

    def scan(self) -> Iterator[Row]:
        return iter(self.rows)

    def get(self, key: tuple) -> Row | None:
        """Point lookup by primary-key values; ``None`` when absent."""
        if not self._pk_indexes:
            raise CatalogError(f"table {self.name} has no primary key")
        if self._pk_bare and len(key) == 1:
            key = key[0]
        return self._pk_map.get(key)

    def key_map(self, position: int) -> dict[Any, Row] | None:
        """Key → row when the primary key is the one column at *position*.

        The map the table maintains anyway, handed to joins to probe as is:
        never mutate it.  ``None`` for any other column or key shape.
        """
        return self._pk_map if self._pk_indexes == (position,) else None

    def primary_key_of(self, row: Row) -> tuple:
        return tuple(row[i] for i in self._pk_indexes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name}, {len(self.rows)} rows)"
