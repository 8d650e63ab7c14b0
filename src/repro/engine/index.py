"""Secondary indexes: hash (equality) and ordered (range) access paths.

Heuristic 4 in the paper relies on base relations offering index-based access
for the attributes a prefer operator uses, while join products are never
indexed.  These classes provide exactly that capability to the native
executor and to the prefer-operator routines.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Iterator, Sequence

from ..errors import CatalogError
from .table import Row, Table


class Index:
    """Base class: an access path over one or more columns of a table."""

    kind = "abstract"

    def __init__(self, table: Table, attrs: Sequence[str]):
        if not attrs:
            raise CatalogError("an index requires at least one attribute")
        self.table = table
        self.attrs = tuple(attrs)
        #: ``row -> key``: the bare value for one attribute, a tuple for more.
        self.key_of = itemgetter(*(table.schema.index_of(a) for a in attrs))
        self._build()

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.table.name}({','.join(self.attrs)})"

    def _build(self) -> None:
        raise NotImplementedError

    def lookup(self, key: Any) -> list[Row]:
        raise NotImplementedError

    def add(self, row: Row) -> None:
        """Incrementally index one newly inserted row.

        Single-row inserts maintain indexes through this hook (bulk loads
        rebuild instead); an index that misses rows its table holds silently
        un-answers queries whose plans use index access paths.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Index({self.name})"


class HashIndex(Index):
    """Equality-only index: a dict from key to matching rows.

    ``buckets`` maps every non-NULL key to its rows in table order; rows
    whose key is NULL sit apart in ``null_rows``.  :meth:`lookup` still finds
    them, while a join can probe ``buckets`` as is: a NULL probe key finds
    nothing there, as SQL equality demands.  Never mutate either from
    outside the index.
    """

    kind = "hash"

    def _build(self) -> None:
        buckets: dict[Any, list[Row]] = {}
        group = buckets.setdefault
        key_of = self.key_of
        for row in self.table.rows:
            group(key_of(row), []).append(row)
        self.null_rows: list[Row] = buckets.pop(None, [])
        self.buckets = buckets

    def lookup(self, key: Any) -> list[Row]:
        if key is None:
            return self.null_rows
        return self.buckets.get(key, [])

    def add(self, row: Row) -> None:
        key = self.key_of(row)
        if key is None:
            self.null_rows.append(row)
        else:
            self.buckets.setdefault(key, []).append(row)

    def distinct_keys(self) -> int:
        return len(self.buckets) + bool(self.null_rows)


class OrderedIndex(Index):
    """Sorted index supporting equality and range scans (B-tree stand-in).

    Keys containing NULL are excluded, mirroring how SQL B-tree indexes are
    never used to satisfy NULL-comparing predicates in our NULL semantics.
    """

    kind = "btree"

    def _build(self) -> None:
        rows = self.table.rows
        entries = [
            (key, row)
            for key, row in zip(map(self.key_of, rows), rows)
            if self._key_is_indexable(key)
        ]
        entries.sort(key=lambda pair: pair[0])
        self._keys = [key for key, _ in entries]
        self._rows = [row for _, row in entries]

    @staticmethod
    def _key_is_indexable(key: Any) -> bool:
        if isinstance(key, tuple):
            return all(part is not None for part in key)
        return key is not None

    def lookup(self, key: Any) -> list[Row]:
        if not self._key_is_indexable(key):
            return []  # NULL keys are not stored (see class docstring)
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._rows[lo:hi]

    def add(self, row: Row) -> None:
        key = self.key_of(row)
        if not self._key_is_indexable(key):
            return  # NULL keys are not stored (see class docstring)
        pos = bisect.bisect_right(self._keys, key)
        self._keys.insert(pos, key)
        self._rows.insert(pos, row)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Row]:
        """Rows with ``low (<|<=) key (<|<=) high``; open bounds via ``None``."""
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(self._keys, low)
        else:
            lo = bisect.bisect_right(self._keys, low)
        if high is None:
            hi = len(self._keys)
        elif high_inclusive:
            hi = bisect.bisect_right(self._keys, high)
        else:
            hi = bisect.bisect_left(self._keys, high)
        return iter(self._rows[lo:hi])

    def distinct_keys(self) -> int:
        count = 0
        previous = object()
        for key in self._keys:
            if key != previous:
                count += 1
                previous = key
        return count


def build_index(table: Table, attrs: Sequence[str] | str, kind: str = "hash") -> Index:
    """Factory: build a ``hash`` or ``btree`` index over *attrs* of *table*."""
    if isinstance(attrs, str):
        attrs = (attrs,)
    if kind == "hash":
        return HashIndex(table, attrs)
    if kind == "btree":
        return OrderedIndex(table, attrs)
    raise CatalogError(f"unknown index kind {kind!r}")
