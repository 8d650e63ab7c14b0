"""Preference-free blocks and plans reused across queries at one data version.

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

Blocks that differ only in the literal of one range conjunct — ``year >=
2003`` and ``year >= 2005`` over the same joins — form a **range family**
(:func:`range_family`) and share one entry: the widest cold run stored so
far, its bound, and the bounded column's value in each row.  A lookup with
the same bound is an exact hit; a narrower bound is a *subsumed* hit that
keeps the stored rows passing its own bound test and bills the stored run
it read; a wider bound runs cold and replaces the entry.  Admission stays
per key: a family is stored on its second cold run, whatever the bounds.

An entry also keeps what makes its rows cheap to *find*, built on first
use and dropped with the entry.  :meth:`Block.index` maps the values at
some key positions to the stored rows holding them, for the positions a
probe asks for only.  It is stored without the memo's lock (two threads
building one build equal ones) and is not charged to the row budget: it
holds one position per stored row, and an entry holds at most one index
per key-position tuple its probes use, which the plans' score-relation
keys fix whatever the literals.  A hit hands back a :class:`Probe`, so
GBU's block merge looks up a small score relation's keys instead of
mapping every row through it; a subsumed hit's probe carries which stored
rows pass its bound, made for that hit only.  ``docs/PERFORMANCE.md``
("Scored rows only") gives the probe rule and the measurements.

The memo keeps **plans** too (:meth:`BlockMemo.plan`):
:meth:`repro.pexec.engine.ExecutionEngine.prepare` and
:meth:`repro.optimizer.PreferenceOptimizer.optimize` store their output
under the input plan's value (plus the frozen ``OptimizerConfig`` for the
optimizer), so a query asked again at one version is neither re-widened
nor re-optimized.  A compiled plan holds its resolved preferences, which
compare by value, so a profile or context change is a different key on its
own.  Every catalog change the optimizer can see moves ``db.version``, and
``analyze`` gives the database a fresh memo.  Plans are stored on their
first run and capped at :data:`PLAN_CAP`, least recently used out first.
``docs/PERFORMANCE.md`` ("Reused plans") gives the measurements.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import ge, gt, itemgetter, le, lt
from threading import Lock
from typing import Any, Callable

from ..plan.nodes import Join, PlanNode, Project, Select
from .catalog import Catalog
from .expressions import Attr, Comparison, Literal, conjoin, conjuncts
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
    #: A range family's entry: the bound the cold run ran with and the
    #: bounded column's value in each row (None under an exact key).
    bound: Any = None
    values: tuple | None = None
    #: Key positions → {key value: stored row positions}, built by the
    #: first probe at those positions (:meth:`index`); dies with the entry.
    indexes: dict = field(default_factory=dict, compare=False, repr=False)

    def index(self, positions: tuple[int, ...]) -> dict:
        """The stored rows' positions by their value at *positions* (a bare
        value for one position, a tuple for several).

        Built once and stored without the memo's lock: two threads building
        the same index build equal ones, and either may be kept.
        """
        index = self.indexes.get(positions)
        if index is None:
            index = {}
            add = index.setdefault
            for at, value in enumerate(map(itemgetter(*positions), self.rows)):
                add(value, []).append(at)
            self.indexes[positions] = index
        return index


class Probe:
    """Finds the rows one memo hit returned by their key values."""

    __slots__ = ("block", "mask", "_ranks")

    def __init__(self, block: Block, mask: bytes | None = None) -> None:
        self.block = block
        #: A subsumed family hit's returned rows: one byte per stored row,
        #: 1 when it passes the hit's bound (None: every stored row).
        self.mask = mask
        self._ranks: array | None = None

    def ranks(self) -> array:
        """Per stored row, how many returned rows precede it (its returned
        position when *mask* keeps it); built on first use."""
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = array("i", accumulate(self.mask, initial=0))
        return ranks

    def locate(self, positions: tuple[int, ...], table: dict) -> dict[int, Any]:
        """The returned rows whose values at *positions* are a key of
        *table* (a tuple per key, in position order): row position → that
        key's value in *table*."""
        index = self.block.index(positions)
        keys = map(itemgetter(0), table) if len(positions) == 1 else iter(table)
        found = list(map(index.get, keys, repeat(())))
        at = chain.from_iterable(found)
        values = chain.from_iterable(map(repeat, table.values(), map(len, found)))
        if self.mask is None:
            return dict(zip(at, values))
        at = list(at)
        kept = list(map(self.mask.__getitem__, at))
        returned = map(self.ranks().__getitem__, compress(at, kept))
        return dict(zip(returned, compress(values, kept)))


#: ``value op bound`` written ``test(bound, value)``, per range operator.
_TESTS = {">=": le, ">": lt, "<=": ge, "<": gt}


#: The literal a family key holds in place of the bound.
_BOUND = Literal(object())

#: Most prepared and optimized plans one memo keeps, beyond which the least
#: recently used is dropped: a version that never moves (a served workload
#: without row writes) would otherwise keep every plan it was ever asked.
#: Two entries per query text (prepare, optimize); every plan kept is also
#: traversed by each full garbage collection, so the cap stays small.
PLAN_CAP = 32


class RangeFamily:
    """The family of one block: where its range conjunct is and its bound.

    ``key`` is the block with that conjunct's literal abstracted, plus the
    operator and the ``optimize`` flag.
    """

    __slots__ = ("key", "op", "bound", "attr", "select")

    def __init__(self, key: tuple, op: str, bound: Any, attr: str, select: Select) -> None:
        self.key = key
        self.op = op
        self.bound = bound
        #: The bounded attribute as written, and the σ holding the conjunct.
        self.attr = attr
        self.select = select

    def within(self, stored: Any) -> bool:
        """True when this bound keeps no row the *stored* bound drops;
        raises TypeError when the two bounds do not compare."""
        if self.op in (">=", ">"):
            return self.bound >= stored
        return self.bound <= stored

    def rows(self, block: Block) -> tuple[list[Row], Probe]:
        """The rows of *block* (stored at this or a wider bound) that pass
        this bound, in stored order, and the probe that finds them."""
        if block.bound == self.bound:
            return list(block.rows), Probe(block)
        test = partial(_TESTS[self.op], self.bound)
        mask = bytes(map(test, block.values))
        return list(compress(block.rows, mask)), Probe(block, mask)

    def run(
        self, plan: Project, catalog: Catalog,
        run: Callable[[PlanNode], tuple[TableSchema, list[Row]]],
    ) -> tuple[TableSchema, list[Row], tuple]:
        """Run *plan* cold and split off the bounded column's values.

        A root projection without the column gets it appended for the run;
        projections keep rows and charges alike, so only the output widens.
        """
        column = self.select.child.schema(catalog).column(self.attr).qualified_name
        if not plan.schema(catalog).has(column):
            schema, rows = run(Project(plan.child, plan.attrs + (column,)))
            values = tuple(map(itemgetter(-1), rows))
            return schema.project(plan.attrs), list(map(itemgetter(slice(-1)), rows)), values
        schema, rows = run(plan)
        return schema, rows, tuple(map(itemgetter(schema.index_of(column)), rows))


def range_family(plan: PlanNode, optimize: bool) -> RangeFamily | None:
    """The range family of *plan*, or None when it is memoized by its own key.

    The family's conjunct is the first ``attr op literal`` (``op`` in
    ``>= > <= <``, literal not NULL) found from the root through σ, π and
    inner ⋈ only; a π below the root must list the attribute as the σ
    writes it, so the column reaches the root.  Only a block with a root
    projection has a family: that projection fixes the column order
    whatever join order the optimizer picks for a bound, and carries the
    column when the block does not output it.
    """
    if not isinstance(plan, Project):
        return None
    found = _abstract(plan.child)
    if found is None:
        return None
    child, select, part = found
    key = (Project(child, plan.attrs), part.op, optimize)
    return RangeFamily(key, part.op, part.right.value, part.left.name, select)


def _abstract(node: PlanNode) -> tuple[PlanNode, Select, Comparison] | None:
    """*node* with its family literal abstracted, the σ and the conjunct."""
    if isinstance(node, Select):
        parts = conjuncts(node.condition)
        for position, part in enumerate(parts):
            if (
                type(part) is Comparison and part.op in _TESTS
                and type(part.left) is Attr and type(part.right) is Literal
                and part.right.value is not None
            ):
                parts[position] = Comparison(part.op, part.left, _BOUND)
                return Select(node.child, conjoin(parts)), node, part
        children = [node.child]
    elif isinstance(node, Project):
        children = [node.child]
    elif type(node) is Join:
        children = [node.left, node.right]
    else:
        return None
    for position, child in enumerate(children):
        found = _abstract(child)
        if found is None:
            continue
        if isinstance(node, Project):
            name = found[2].left.name.lower()
            if all(attr.lower() != name for attr in node.attrs):
                return None
        children[position] = found[0]
        return (node.with_children(children),) + found[1:]
    return None


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
    """The blocks answered and the plans prepared and optimized at one data
    version, shared by a database and the snapshots it takes.

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
        #: Prepared and optimized plans, least recently used first.
        self._plans: OrderedDict[tuple, PlanNode] = OrderedDict()
        self.version = -1
        #: Most rows the entries may hold (a pending key counts as one):
        #: a quarter of the stored rows.
        self.budget = 0
        self.rows = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits answered from a family entry stored at a wider bound.
        self.subsumed = 0
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0

    def _at(self, version: int, catalog) -> bool:
        """Move the memo to *version* (under the lock): a newer version
        drops every entry; False for an older one, which must neither read
        nor write the memo."""
        if version != self.version:
            if version < self.version:
                return False
            self._entries.clear()
            self._pending = 0
            self._plans.clear()
            self.rows = 0
            self.version = version
            self.budget = sum(len(table) for table in catalog.tables()) // 4
        return True

    def plan(self, key: tuple, version: int, catalog) -> PlanNode | None:
        """The plan stored under *key* at *version*, or None."""
        with self._lock:
            if not self._at(version, catalog):
                return None
            # Popped and put back as most recent: one comparison of the
            # plans, which costs about as much as hashing them.
            plan = self._plans.pop(key, None)
            if plan is None:
                self.plan_misses += 1
                return None
            self._plans[key] = plan
            self.plan_hits += 1
            return plan

    def put_plan(self, key: tuple, version: int, plan: PlanNode) -> None:
        """Store *plan* under *key* while the memo is at *version*; the
        least recently used of more than :data:`PLAN_CAP` plans goes."""
        with self._lock:
            if version != self.version:
                return
            self._plans[key] = plan
            if len(self._plans) > PLAN_CAP:
                self._plans.popitem(last=False)
                self.plan_evictions += 1

    def get(
        self, key: tuple, version: int, catalog, family: RangeFamily | None = None
    ) -> Block | None:
        """The block stored under *key* at *version*, or None.

        Under a *family* key the stored block must be at the family's bound
        or a wider one; a bound that does not compare with the stored one
        raises TypeError before anything is counted.
        """
        with self._lock:
            if not self._at(version, catalog):
                return None
            block = self._entries.get(key)
            if block is not None and family is not None and not family.within(block.bound):
                block = None  # a wider bound: runs cold, then replaces it
            if block is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if family is not None and block.bound != family.bound:
                self.subsumed += 1
            return block

    def admitted(self, key: tuple) -> bool:
        """True when a cold run under *key* would be stored (the key is
        pending or holds a block)."""
        return key in self._entries

    def put(
        self, key: tuple, version: int, schema: TableSchema, rows: list[Row],
        cost: CostModel, tuples: int, family: RangeFamily | None = None,
        values: tuple | None = None,
    ) -> None:
        """Account a cold run at *version*: remember its key the first
        time, store its answer and charges the second, if it fits.

        A family run is stored only with its *values*, and replaces a
        stored entry whose bound is narrower than its own.
        """
        size = len(rows)
        if size > self.budget:
            return
        block = None
        if key in self._entries and (family is None or values is not None):
            # re-checked under the lock
            bound = None if family is None else family.bound
            block = Block(schema, tuple(rows), cost, tuples, bound, values)
        with self._lock:
            if version != self.version:
                return
            if key not in self._entries:
                self._entries[key] = None
                self._pending += 1
            elif block is None:
                return
            elif self._entries[key] is None:
                self._entries[key] = block
                self._entries.move_to_end(key)
                self._pending -= 1
                self.rows += size
            elif family is not None and _wider(family, self._entries[key]):
                self.rows += size - len(self._entries[key].rows)
                self._entries[key] = block
                self._entries.move_to_end(key)
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
        """Blocks: ``hits`` / ``misses`` / ``evictions`` and the ``rows``
        held; subsumed hits count as hits (:attr:`subsumed` tells them
        apart).  Plans: ``plan_hits`` / ``plan_misses`` /
        ``plan_evictions`` and the ``plan_entries`` held."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rows": self.rows,
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "plan_evictions": self.plan_evictions,
                "plan_entries": len(self._plans),
            }


def _wider(family: RangeFamily, stored: Block) -> bool:
    """True when *family*'s bound keeps rows *stored*'s bound drops."""
    try:
        return not family.within(stored.bound)
    except TypeError:
        return False
