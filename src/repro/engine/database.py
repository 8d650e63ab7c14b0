"""The :class:`Database` facade: DDL, DML, native execution and snapshots."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from ..obs import current_tracer
from ..plan.nodes import Materialized, PlanNode
from ..resilience import current_guard
from ..serve.rwlock import RWLock
from ..errors import CatalogError
from .blockmemo import Block, BlockMemo, Probe, RangeFamily, Tally, range_family
from .catalog import Catalog
from .iosim import CostModel
from .native_optimizer import optimize_native
from .physical import execute_native
from .schema import TableSchema, make_schema
from .table import Row, Table
from .types import DataType

#: ``(database, cost model)`` of the query running in this context; see
#: :func:`use_query_cost`.
_QUERY_COST: ContextVar["tuple[Database, CostModel] | None"] = ContextVar(
    "repro.query_cost", default=None
)


@contextmanager
def use_query_cost(db: "Database", cost: CostModel):
    """Make *cost* answer ``db.cost`` in this context only.

    One snapshot :class:`Database` is shared by every query a server runs
    on it, so a per-query model must not be installed by assigning to the
    shared object: concurrent queries would then charge each other's
    counters and guard budgets.  Other databases, and other
    threads, keep seeing their own accumulator, into which *cost* is
    merged on exit.
    """
    token = _QUERY_COST.set((db, cost))
    try:
        yield
    finally:
        _QUERY_COST.reset(token)
        db._cost.merge(cost)


class Database:
    """An in-memory relational database with a PostgreSQL-shaped surface.

    This is the substrate the preference layer runs on: it owns the catalog,
    runs preference-free plans through the native optimizer and executor,
    and accumulates simulated I/O in :attr:`cost`.

    Concurrency model (see ``docs/SERVING.md``): DDL/DML methods take the
    exclusive side of an internal readers/writer lock, catalog lookups take
    the shared side, and :meth:`snapshot` captures a **copy-on-write
    snapshot** — an immutable `Database` view sharing table storage with the
    live database until a writer touches a table, at which point the live
    side forks a private copy.  Queries in a concurrent server always run
    against a snapshot, so they never need the lock and never observe a
    half-applied mutation.
    """

    def __init__(self) -> None:
        self.catalog = Catalog()
        self._cost = CostModel()
        #: Monotonic mutation counter: bumped by every DDL/DML call, copied
        #: into snapshots so results can state which version answered them.
        self.version = 0
        #: Salvage-mode loads attach a RecoveryReport here (see persist).
        self.recovery = None
        #: Per-table column caches for the columnar executor, keyed by
        #: lowercase table name → ``(version, ColumnStore)``; entries built
        #: against an older version are rebuilt on next access (see
        #: :func:`repro.columnar.column.column_store_for`).  Snapshots get a
        #: fresh dict, so cached columns never alias across versions.
        self.columnar_cache: dict = {}
        #: Preference-free blocks answered at one version (see
        #: :meth:`execute`); snapshots share it, ``analyze`` replaces it.
        self.blocks = BlockMemo()
        self._rwlock = RWLock("db.rwlock")
        #: Table keys captured by at least one live snapshot and not yet
        #: forked; the first post-snapshot write forks them (copy-on-write).
        self._cow: set[str] = set()
        self._frozen = False

    @property
    def cost(self) -> CostModel:
        """The simulated-I/O accountant operators charge.

        Inside an engine run on this database that is the run's own model
        (:func:`use_query_cost`); everywhere else the database-wide
        accumulator the runs merge into.
        """
        active = _QUERY_COST.get()
        if active is not None and active[0] is self:
            return active[1]
        return self._cost

    # -- snapshots -------------------------------------------------------------

    @property
    def is_snapshot(self) -> bool:
        """True for the immutable view :meth:`snapshot` returns."""
        return self._frozen

    def snapshot(self) -> "Database":
        """An immutable, consistent view of the database as of this instant.

        The snapshot shares row storage with the live database (cheap:
        O(#tables) dictionary copies), owns a fresh :class:`CostModel`
        accumulator, and refuses every mutation.  Many queries may run on
        one snapshot at once; each charges its own per-query model (see
        :func:`use_query_cost`).  Writers proceed concurrently: their first
        write to a captured table forks it, leaving the snapshot's view
        untouched.  Snapshotting a snapshot returns the snapshot itself.
        """
        if self._frozen:
            return self
        with self._rwlock.write_locked():
            shared = set()
            for table in self.catalog.tables():
                table.freeze()
                shared.add(table.name.lower())
            self._cow = shared
            snap = Database()
            snap.catalog = self.catalog.fork()
            snap.version = self.version
            snap.blocks = self.blocks
            snap._frozen = True
            return snap

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise CatalogError(
                "database snapshot is read-only; mutate the live database "
                "it was taken from"
            )

    def _writable_table(self, name: str) -> Table:
        """The copy-on-write gate: fork a snapshot-shared table before writing."""
        table = self.catalog.table(name)
        key = table.name.lower()
        if key in self._cow:
            table = table.fork()
            self.catalog.replace_table(table)
            self._cow.discard(key)
        return table

    # -- DDL -----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, DataType]],
        primary_key: Sequence[str] = (),
    ) -> Table:
        """Create a table from ``(name, type)`` column specs (CREATE TABLE)."""
        schema = make_schema(name.upper(), columns, primary_key)
        return self.create_table_from_schema(schema)

    def create_table_from_schema(self, schema: TableSchema) -> Table:
        """Create a table from an existing :class:`TableSchema`."""
        with self._rwlock.write_locked():
            self._ensure_mutable()
            table = self.catalog.create_table(schema)
            self.version += 1
            return table

    def drop_table(self, name: str) -> None:
        """Remove a table, its indexes and statistics (DROP TABLE)."""
        with self._rwlock.write_locked():
            self._ensure_mutable()
            self.catalog.drop_table(name)
            self._cow.discard(name.lower())
            self.version += 1

    def create_index(self, table: str, attrs: Sequence[str] | str, kind: str = "hash"):
        """Build a secondary ``hash`` or ``btree`` index (CREATE INDEX)."""
        with self._rwlock.write_locked():
            self._ensure_mutable()
            index = self.catalog.create_index(table, attrs, kind)
            self.version += 1
            return index

    # -- DML -----------------------------------------------------------------

    def insert(self, table: str, values: Sequence[Any] | Mapping[str, Any]) -> Row:
        """Insert one row (positional tuple or column mapping)."""
        with self._rwlock.write_locked():
            self._ensure_mutable()
            writable = self._writable_table(table)
            row = writable.insert(values)
            self.catalog.index_row(writable.name, row)
            self.version += 1
            return row

    def insert_many(
        self, table: str, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> int:
        """Bulk-insert rows and refresh the table's secondary indexes.

        All or nothing: when any row is rejected (schema, NULL or duplicate
        primary key) none is stored and the version is not bumped.
        """
        with self._rwlock.write_locked():
            self._ensure_mutable()
            writable = self._writable_table(table)
            count = writable.insert_many(rows)
            self.catalog.rebuild_indexes(writable.name)
            self.version += 1
            return count

    def analyze(self, table: str | None = None) -> None:
        """Collect optimizer statistics (PostgreSQL's ANALYZE)."""
        with self._rwlock.write_locked():
            # Statistics objects are replaced, never mutated in place, so
            # snapshots keep the TableStats they captured; allowed on
            # snapshots too (their catalog dictionaries are private).
            self.catalog.analyze(table)
            # New statistics may choose another join order: never replay
            # a block planned with the old ones.
            self.forget_blocks()

    def forget_blocks(self) -> None:
        """Give this database a fresh, empty block memo (cold runs again).

        Snapshots taken earlier keep the memo they were handed.
        """
        self.blocks = BlockMemo()

    # -- queries --------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        with self._rwlock.read_locked():
            return self.catalog.table(name)

    def execute(
        self, plan: PlanNode, optimize: bool = True
    ) -> tuple[TableSchema, list[Row]]:
        """Run a preference-free plan through the native engine.

        Preference operators raise; they are handled by
        :class:`repro.pexec.engine.ExecutionEngine`.

        The answer is memoized in :attr:`blocks` for this data version:
        the second cold run of a block stores it, and from then on the
        block — asked by any user, session or snapshot of this version —
        costs a dictionary probe (see :mod:`repro.engine.blockmemo`).  A
        hit returns a fresh list, charges ``cost`` and the guard's tuple
        budget exactly what the cold run charged, checks the guard once
        and opens a ``native.memo`` span.  The memo is bypassed for plans
        with a :class:`Materialized` leaf (identity equality).

        A block in a range family is keyed by its family: a narrower bound
        than the stored one's keeps the stored rows passing its bound and
        bills the stored run; a bound of another type than the stored
        one's falls back to the block's own key.
        """
        schema, rows, _ = self.execute_probed(plan, optimize)
        return schema, rows

    def execute_probed(
        self, plan: PlanNode, optimize: bool = True
    ) -> tuple[TableSchema, list[Row], Probe | None]:
        """:meth:`execute`, plus a :class:`Probe` that finds the returned
        rows by key value when the memo answered (None on a cold run)."""
        cost = self.cost
        if any(type(node) is Materialized for node in plan.walk()):
            return self._run_native(plan, optimize, cost) + (None,)
        version = self.version
        memo = self.blocks
        family = range_family(plan, optimize)
        block = None
        if family is not None:
            key = family.key
            try:
                block = memo.get(key, version, self.catalog, family)
            except TypeError:
                family = None
        if family is None:
            key = (plan, optimize)
            block = memo.get(key, version, self.catalog)
        if block is not None:
            return self._replay(plan, block, cost, family)
        tally = Tally(cost.guard)
        run_cost = CostModel(guard=tally)
        values = None
        try:
            if family is not None and memo.admitted(key):
                schema, rows, values = family.run(
                    plan, self.catalog, lambda node: self._run_native(node, optimize, run_cost)
                )
            else:
                schema, rows = self._run_native(plan, optimize, run_cost)
        finally:
            cost.merge(run_cost)
        if self.version == version:  # no write landed while it ran
            memo.put(key, version, schema, rows, run_cost, tally.tuples, family, values)
        return schema, rows, None

    def memo_plan(
        self, stage: Hashable, plan: PlanNode, build: Callable[[PlanNode], PlanNode]
    ) -> tuple[PlanNode, bool]:
        """``build(plan)``, memoized in :attr:`blocks` for this data version
        under ``(stage, plan)``; with True when the memo answered.

        *stage* names what *build* does with its settings (``"prepare"``,
        or an optimizer's ``OptimizerConfig``).  Plans with a
        :class:`Materialized` leaf (identity equality) bypass the memo, as
        for :meth:`execute`, and a plan built while a write landed is not
        stored.
        """
        if any(type(node) is Materialized for node in plan.walk()):
            return build(plan), False
        version = self.version
        memo = self.blocks
        key = (stage, plan)
        built = memo.plan(key, version, self.catalog)
        if built is not None:
            return built, True
        built = build(plan)
        if self.version == version:  # no write landed while it ran
            memo.put_plan(key, version, built)
        return built, False

    def _run_native(
        self, plan: PlanNode, optimize: bool, cost: CostModel
    ) -> tuple[TableSchema, list[Row]]:
        if optimize:
            plan = optimize_native(plan, self.catalog)
        return execute_native(plan, self.catalog, cost)

    @staticmethod
    def _replay(
        plan: PlanNode, block: Block, cost: CostModel, family: RangeFamily | None
    ) -> tuple[TableSchema, list[Row], Probe]:
        guard = current_guard()
        if guard.enabled:
            guard.check()
        if family is None:
            rows, probe = list(block.rows), Probe(block)
        else:
            rows, probe = family.rows(block)
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("native.memo", label=plan.label()) as span:
                span.add("rows_out", len(rows))
                if family is not None:
                    span.set("subsumed", block.bound != family.bound)
                    span.set("bound", block.bound)
        cost.merge(block.cost)
        if cost.guard is not None:
            cost.guard.note_tuples(block.tuples)
        return block.schema, rows, probe

    def explain_native(self, plan: PlanNode) -> PlanNode:
        """The plan the native optimizer would execute (PostgreSQL's EXPLAIN)."""
        return optimize_native(plan, self.catalog)

    def reset_cost(self) -> None:
        """Forget accumulated simulated-I/O counters (fresh measurement)."""
        self._cost.reset()
