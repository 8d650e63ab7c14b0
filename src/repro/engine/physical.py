"""The native execution engine: preference-free plans over the catalog.

This is the stand-in for the conventional DBMS underneath the paper's
prototype.  It executes plans containing only standard operators —
Relation / Materialized leaves, Select, Project, Join and the set
operations — using an iterator (pipelined) model with hash joins, index
access paths and simulated I/O accounting.

Row work is done by kernels built once per operator — ``itemgetter`` key
and projection extractors applied through ``map``/``filter`` — rather than
per-row generator expressions.  Hash joins drop NULL-keyed build rows once,
at build time, so probes carry no per-row NULL test.

Build sides come from the catalog when it already maintains one: a join
whose inner input is a base relation (or a projection of one) on its
one-column primary key or a one-column hash index probes the table's
key → row map or the index's key → rows buckets (NULL keys kept apart, in
table order) instead of hashing the relation again; only derived inputs —
selections, joins, materialized relations — are built per query.  The
charges do not change with it: the skipped input still runs as an operator
(guard check, operator count, scan, traced span with its row count) and
its rows are charged as materialized, so simulated I/O, guard budgets and
EXPLAIN ANALYZE trees read as if the table had been built.  The index
nested loop probes the same maps, one batched lookup over all outer keys,
charged one index probe per non-NULL key.  A selection ``σ[pk = c]`` on a
base relation probes the key map too, charged one index probe and no scan.

Preference operators are rejected: they belong to the layer above
(:mod:`repro.pexec`), exactly like the paper's prefer routines live outside
the PostgreSQL executor.
"""

from __future__ import annotations

from collections import deque
from itertools import tee
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from ..errors import ExecutionError
from ..obs import current_tracer, traced_rows
from ..resilience import current_guard
from ..plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    Materialized,
    PlanNode,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)
from .catalog import Catalog
from .expressions import Attr, Comparison, Expr, Literal, conjoin, conjuncts, is_true
from .index import HashIndex, OrderedIndex
from .iosim import CostModel
from .joinutil import split_equi_condition
from .schema import TableSchema
from .table import Row, row_getter


def execute_native(
    plan: PlanNode, catalog: Catalog, cost: CostModel | None = None, tracer=None
) -> tuple[TableSchema, list[Row]]:
    """Run a preference-free *plan*; returns its schema and materialized rows."""
    cost = cost if cost is not None else CostModel()
    schema, rows = _Executor(catalog, cost, tracer).run(plan)
    return schema, list(rows)


class _Executor:
    def __init__(self, catalog: Catalog, cost: CostModel, tracer=None):
        self.catalog = catalog
        self.cost = cost
        self.tracer = tracer if tracer is not None else current_tracer()
        self.guard = current_guard()

    def run(self, plan: PlanNode) -> tuple[TableSchema, Iterator[Row]]:
        # Operator-boundary resilience checkpoint: honor deadlines and
        # cancellation.
        if self.guard.enabled:
            self.guard.check()
        self.cost.count_operator(plan.kind)
        tracer = self.tracer
        if not tracer.enabled:
            return self._dispatch(plan)
        # One span per operator; its wall time is inclusive — open through
        # last output row — because the iterator model interleaves parents
        # and children (the EXPLAIN ANALYZE convention).
        span = tracer.span(f"native.{plan.kind}", label=plan.label())
        tracer.push(span)
        try:
            schema, rows = self._dispatch(plan)
        finally:
            tracer.pop(span)
        return schema, traced_rows(rows, span)

    def _dispatch(self, plan: PlanNode) -> tuple[TableSchema, Iterator[Row]]:
        if isinstance(plan, Relation):
            return self._relation(plan)
        if isinstance(plan, Materialized):
            self.cost.scan(len(plan.rows))
            return plan.schema(self.catalog), iter(plan.rows)
        if isinstance(plan, Select):
            return self._select(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, Join):
            return self._join(plan)
        if isinstance(plan, LeftJoin):
            return self._left_join(plan)
        if isinstance(plan, Union):
            return self._union(plan)
        if isinstance(plan, Intersect):
            return self._intersect(plan)
        if isinstance(plan, Difference):
            return self._difference(plan)
        if isinstance(plan, (Prefer, TopK)):
            raise ExecutionError(
                f"the native engine cannot execute {plan.kind!r}; "
                "preference operators are evaluated by repro.pexec"
            )
        raise ExecutionError(f"unknown plan node {plan!r}")

    # -- leaves ------------------------------------------------------------------

    def _relation(self, plan: Relation) -> tuple[TableSchema, Iterator[Row]]:
        table = self.catalog.table(plan.name)
        self.cost.scan(len(table))
        return plan.schema(self.catalog), iter(table.rows)

    # -- unary -------------------------------------------------------------------

    def _select(self, plan: Select) -> tuple[TableSchema, Iterator[Row]]:
        if plan.condition.references_score():
            raise ExecutionError(
                "the native engine has no score/conf attributes; "
                "score filters are evaluated by the preference layer"
            )
        if isinstance(plan.child, Relation):
            result = self._try_index_access(plan.child, plan.condition)
            if result is not None:
                return result
        schema, rows = self.run(plan.child)
        return schema, filter(plan.condition.compile(schema), rows)

    def _try_index_access(
        self, relation: Relation, condition: Expr
    ) -> tuple[TableSchema, Iterator[Row]] | None:
        """Use a secondary index, or the one-column primary key's map, when
        a conjunct allows it (σ over base table)."""
        schema = relation.schema(self.catalog)
        parts = conjuncts(condition)
        for position, part in enumerate(parts):
            access = self._index_candidates(relation, schema, part)
            if access is None:
                continue
            residual = conjoin([p for i, p in enumerate(parts) if i != position])
            self.cost.index_probe(len(access))
            if is_true(residual):
                return schema, iter(access)
            return schema, filter(residual.compile(schema), access)
        return None

    def _index_candidates(
        self, relation: Relation, schema: TableSchema, part: Expr
    ) -> list[Row] | None:
        if not isinstance(part, Comparison):
            return None
        attr, value = _attr_const(part, schema)
        if attr is None:
            return None
        bare = attr.rsplit(".", 1)[-1]
        # A comparison with NULL is never true (the scan path agrees), so a
        # NULL constant matches nothing: a hash index would return its NULL
        # bucket and ``range()`` would read NULL as an open bound.
        if part.op == "=":
            index = self.catalog.find_index(relation.name, bare)
            if index is not None:
                return [] if value is None else index.lookup(value)
            # A one-column primary key: probe the table's key → row map
            # (a key is never NULL, so a NULL constant finds no row).
            table = self.catalog.table(relation.name)
            key_map = table.key_map(table.schema.index_of(bare))
            if key_map is None:
                return None
            row = key_map.get(value)
            return [] if row is None else [row]
        index = self.catalog.find_index(relation.name, bare, kind="btree")
        if not isinstance(index, OrderedIndex):
            return None
        op = part.op if isinstance(part.left, Attr) else _mirror(part.op)
        if op not in ("<", "<=", ">", ">="):
            return None
        if value is None:
            return []
        if op == "<":
            return list(index.range(high=value, high_inclusive=False))
        if op == "<=":
            return list(index.range(high=value))
        if op == ">":
            return list(index.range(low=value, low_inclusive=False))
        return list(index.range(low=value))

    def _project(self, plan: Project) -> tuple[TableSchema, Iterator[Row]]:
        schema, rows = self.run(plan.child)
        positions = [schema.index_of(a) for a in plan.attrs]
        out_schema = schema.project(plan.attrs)
        return out_schema, map(row_getter(positions), rows)

    # -- joins --------------------------------------------------------------------

    def _join(self, plan: Join) -> tuple[TableSchema, Iterator[Row]]:
        left_schema, left_rows = self.run(plan.left)
        right_schema = plan.right.schema(self.catalog)
        out_schema = left_schema.join(right_schema)
        equi, residual = split_equi_condition(plan.condition, left_schema, right_schema)

        if not equi:
            _, right_rows = self.run(plan.right)
            return out_schema, self._nested_loop(
                left_rows, right_rows, out_schema, plan.condition
            )
        joined = self._try_key_map_join(plan, left_schema, left_rows, equi)
        if joined is None:
            _, right_rows = self.run(plan.right)
            joined = self._hash_join(left_schema, left_rows, right_schema, right_rows, equi)
        if residual is not None:
            joined = filter(residual.compile(out_schema), joined)
        return out_schema, joined

    def _try_key_map_join(
        self,
        plan: Join,
        left_schema: TableSchema,
        left_rows: Iterator[Row],
        equi: list[tuple[str, str]],
    ) -> Iterator[Row] | None:
        """Probe a key map the catalog maintains on the inner base relation.

        Applies when the inner side is a base relation, possibly under a
        pushed-down projection, and the single join attribute is its
        one-column primary key or carries a one-column index.  Which join it
        is decides only what it is charged:

        * an index nested loop — an index on the attribute and an outer side
          estimated much smaller than the relation (the classic win after a
          selective filter): one index probe per non-NULL outer key, the
          relation never scanned;
        * a hash join whose build table already exists: the inner subtree
          runs as it would for a build (operators counted, relation scanned,
          spans traced) and all its rows are charged as materialized.
        """
        if len(equi) != 1:
            return None
        inner, project = plan.right, None
        if isinstance(inner, Project) and isinstance(inner.child, Relation):
            base_schema = inner.child.schema(self.catalog)
            project = row_getter([base_schema.index_of(a) for a in inner.attrs])
            inner = inner.child
        if not isinstance(inner, Relation):
            return None
        left_attr, right_attr = equi[0]
        bare = right_attr.rsplit(".", 1)[-1]
        key = itemgetter(left_schema.index_of(left_attr))
        table = self.catalog.table(inner.name)
        index = self.catalog.find_index(inner.name, bare)
        if index is not None and len(index.attrs) == 1:
            from .cardinality import estimate_cardinality

            if estimate_cardinality(plan.left, self.catalog) * 4 < len(table):
                self.cost.count_operator("index-nested-loop")
                lookup = index.buckets.get if isinstance(index, HashIndex) else index.lookup
                rows = list(left_rows)
                keys = list(map(key, rows))
                found = list(map(lookup, keys))
                self.cost.index_probes(
                    len(keys) - keys.count(None), list(map(len, filter(None, found)))
                )
                return _probe_join(rows, found, project=project)
        key_map = table.key_map(table.schema.index_of(bare))
        unique = key_map is not None
        if not unique:
            index = self.catalog.find_index(inner.name, bare, kind="hash")
            if index is None or len(index.attrs) != 1:
                return None
            key_map = index.buckets
        _, right_rows = self.run(plan.right)
        if self.tracer.enabled:
            deque(right_rows, maxlen=0)  # finish the inner spans with their row counts
        self.cost.materialize(len(table))
        return _probe_join(*_found(left_rows, key, key_map.get), unique, project)

    def _build(self, rows: Iterator[Row], positions: list[int]) -> dict:
        """Hash a derived join input: join key → rows.

        Every build row is counted as materialized, but NULL-keyed rows are
        dropped here, once: a NULL key equals nothing, so probes need no
        per-row NULL test (a probe key holding NULL finds no bucket).
        """
        key = itemgetter(*positions)
        buckets: dict = {}
        group = buckets.setdefault
        for row in rows:
            group(key(row), []).append(row)
        self.cost.materialize(sum(map(len, buckets.values())))
        if len(positions) == 1:
            buckets.pop(None, None)
        else:
            for null_key in [k for k in buckets if None in k]:
                del buckets[null_key]
        return buckets

    def _hash_join(
        self,
        left_schema: TableSchema,
        left_rows: Iterator[Row],
        right_schema: TableSchema,
        right_rows: Iterator[Row],
        equi: list[tuple[str, str]],
    ) -> Iterator[Row]:
        buckets = self._build(right_rows, [right_schema.index_of(b) for _, b in equi])
        key = itemgetter(*(left_schema.index_of(a) for a, _ in equi))
        return _probe_join(*_found(left_rows, key, buckets.get))

    def _left_join(self, plan: LeftJoin) -> tuple[TableSchema, Iterator[Row]]:
        left_schema, left_rows = self.run(plan.left)
        right_schema, right_rows = self.run(plan.right)
        out_schema = left_schema.join(right_schema)
        equi, residual = split_equi_condition(plan.condition, left_schema, right_schema)
        padding = (None,) * len(right_schema.columns)

        if equi:
            get = self._build(right_rows, [right_schema.index_of(b) for _, b in equi]).get
            probe_key = itemgetter(*(left_schema.index_of(a) for a, _ in equi))

            def candidates(row: Row):
                return get(probe_key(row), ())
        else:
            residual = None if is_true(plan.condition) else plan.condition
            inner = list(right_rows)
            self.cost.materialize(len(inner))

            def candidates(row: Row):
                return inner

        predicate = residual.compile(out_schema) if residual is not None else None

        def generate() -> Iterator[Row]:
            for row in left_rows:
                matched = False
                for other in candidates(row):
                    combined = row + other
                    if predicate is None or predicate(combined):
                        matched = True
                        yield combined
                if not matched:
                    yield row + padding

        return out_schema, generate()

    def _nested_loop(
        self,
        left_rows: Iterator[Row],
        right_rows: Iterator[Row],
        out_schema: TableSchema,
        condition: Expr,
    ) -> Iterator[Row]:
        inner = list(right_rows)
        self.cost.materialize(len(inner))
        joined = (row + other for row in left_rows for other in inner)
        return joined if is_true(condition) else filter(condition.compile(out_schema), joined)

    # -- set operations --------------------------------------------------------------

    def _union(self, plan: Union) -> tuple[TableSchema, Iterator[Row]]:
        schema, left_rows, right_rows = self._set_inputs(plan)
        seen: dict[Row, None] = {}
        for row in left_rows:
            seen.setdefault(row)
        for row in right_rows:
            seen.setdefault(row)
        self.cost.materialize(len(seen))
        return schema, iter(seen.keys())

    def _intersect(self, plan: Intersect) -> tuple[TableSchema, Iterator[Row]]:
        schema, left_rows, right_rows = self._set_inputs(plan)
        right_set = set(right_rows)
        self.cost.materialize(len(right_set))
        seen: dict[Row, None] = {}
        for row in left_rows:
            if row in right_set:
                seen.setdefault(row)
        return schema, iter(seen.keys())

    def _difference(self, plan: Difference) -> tuple[TableSchema, Iterator[Row]]:
        schema, left_rows, right_rows = self._set_inputs(plan)
        right_set = set(right_rows)
        self.cost.materialize(len(right_set))
        seen: dict[Row, None] = {}
        for row in left_rows:
            if row not in right_set:
                seen.setdefault(row)
        return schema, iter(seen.keys())

    def _set_inputs(self, plan) -> tuple[TableSchema, Iterator[Row], Iterator[Row]]:
        left_schema, left_rows = self.run(plan.left)
        right_schema, right_rows = self.run(plan.right)
        if not left_schema.union_compatible(right_schema):
            raise ExecutionError(f"{plan.kind}: inputs are not union-compatible")
        return left_schema, left_rows, right_rows


def _found(
    rows: Iterator[Row], key: Callable[[Row], Any], lookup: Callable[[Any], Any]
) -> tuple[Iterator[Row], Iterator[Any]]:
    """*rows* again and, in step, what *lookup* finds for each row's *key*.

    Both stream: the rows are read once, through a two-way ``tee``.
    """
    rows, keyed = tee(rows)
    return rows, map(lookup, map(key, keyed))


def _probe_join(
    rows: Iterable[Row],
    found: Iterable[Any],
    unique: bool = False,
    project: Callable[[Row], Row] | None = None,
) -> Iterator[Row]:
    """The equi-join probe kernel: ``row + match`` for each match found.

    *found* runs in step with *rows*.  Each entry is a list of matching
    rows, or with *unique* one matching row; ``None`` (and an empty list)
    means no match.  *project* maps each match to the columns the join
    keeps (a pushed-down projection of the inner side).
    """
    pairs = zip(rows, found)
    if unique:
        if project is None:
            return (row + other for row, other in pairs if other is not None)
        return (row + project(other) for row, other in pairs if other is not None)
    if project is None:
        return (row + other for row, matches in pairs if matches for other in matches)
    return (
        row + other for row, matches in pairs if matches for other in map(project, matches)
    )


def _attr_const(part: Comparison, schema: TableSchema) -> tuple[str | None, Any]:
    """Decompose ``attr op const`` (either orientation) against *schema*."""
    if isinstance(part.left, Attr) and isinstance(part.right, Literal):
        if schema.has(part.left.name):
            return part.left.name, part.right.value
    if isinstance(part.right, Attr) and isinstance(part.left, Literal):
        if schema.has(part.right.name):
            return part.right.name, part.left.value
    return None, None


_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _mirror(op: str) -> str:
    return _MIRROR[op]
