"""Preference-free blocks reused across queries at one data version.

GBU delegates each contiguous block of standard operators to the native
engine as one query, and FtP its whole Q_NP.  Such a block carries no
user's preferences, so on a served workload many different queries send
the same block while the data stands still — profiles change far more
often than data (Chomicki, *Database Querying under Changing
Preferences*).  :meth:`repro.engine.database.Database.execute` keeps the
answers here, keyed by the block plan (value equality) and valid for
exactly one ``db.version``.

Each entry keeps what the cold run charged (its :class:`CostModel`
counters and the tuples it noted against the guard), so a hit bills the
query exactly like the run it replaces.  Entries are held in LRU order
while the rows they hold sum to at most a quarter of the rows stored in
the database; a larger block is not stored.

A block is stored on its second cold run at a version; the first leaves
only its key, charged one row of the budget.  A block asked for once then
costs no copy and evicts nothing.  ``docs/PERFORMANCE.md`` ("Reused
preference-free blocks") gives the measurements behind this rule.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock

from .iosim import CostModel
from .schema import TableSchema
from .table import Row


@dataclass(frozen=True)
class Block:
    """One memoized native answer and the charges of the run that made it."""

    schema: TableSchema
    rows: tuple[Row, ...]
    cost: CostModel
    #: Tuples the cold run charged against the query guard's budget.
    tuples: int


class Tally:
    """Stands in for the guard on a cold block run: counts the tuples
    charged against it and forwards them to the query's guard, if any."""

    __slots__ = ("guard", "tuples")

    def __init__(self, guard) -> None:
        self.guard = guard
        self.tuples = 0

    def note_tuples(self, count: int) -> None:
        self.tuples += count
        if self.guard is not None:
            self.guard.note_tuples(count)


class BlockMemo:
    """The blocks answered at one data version, shared by a database and
    the snapshots it takes.

    Bookkeeping runs under the memo's lock, which is never held while a
    block executes.  A lookup at a newer version than the memo's drops
    every entry first; a database older than the memo neither reads nor
    writes it.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        #: Block, or None for a key whose block ran cold once and is not
        #: stored yet; least recently used first.
        self._entries: OrderedDict[tuple, Block | None] = OrderedDict()
        self._pending = 0
        self.version = -1
        #: Most rows the entries may hold (a pending key counts as one):
        #: a quarter of the stored rows.
        self.budget = 0
        self.rows = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, version: int, catalog) -> Block | None:
        """The block stored under *key* at *version*, or None."""
        with self._lock:
            if version != self.version:
                if version < self.version:
                    return None
                self._entries.clear()
                self._pending = 0
                self.rows = 0
                self.version = version
                self.budget = sum(len(table) for table in catalog.tables()) // 4
            block = self._entries.get(key)
            if block is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return block

    def put(
        self, key: tuple, version: int, schema: TableSchema, rows: list[Row],
        cost: CostModel, tuples: int,
    ) -> None:
        """Account a cold run at *version*: remember its key the first
        time, store its answer and charges the second, if it fits."""
        size = len(rows)
        if size > self.budget:
            return
        block = None
        if key in self._entries:  # re-checked under the lock
            block = Block(schema, tuple(rows), cost, tuples)
        with self._lock:
            if version != self.version:
                return
            if key not in self._entries:
                self._entries[key] = None
                self._pending += 1
            elif block is not None and self._entries[key] is None:
                self._entries[key] = block
                self._entries.move_to_end(key)
                self._pending -= 1
                self.rows += size
            else:
                return
            while self.rows + self._pending > self.budget:
                _, evicted = self._entries.popitem(last=False)
                if evicted is None:
                    self._pending -= 1
                else:
                    self.rows -= len(evicted.rows)
                    self.evictions += 1

    def __len__(self) -> int:
        """Blocks stored (pending keys not counted)."""
        return len(self._entries) - self._pending

    def stats(self) -> dict[str, int]:
        """``hits`` / ``misses`` / ``evictions`` and the ``rows`` held."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rows": self.rows,
            }
