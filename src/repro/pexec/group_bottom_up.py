"""The Group Bottom-Up (GBU) execution strategy (Algorithm 2, §VI-B).

GBU performs the same postorder traversal as BU but **defers** standard
operators: contiguous selects/projects/joins/set-operations are accumulated
(the paper's DAG ``G``) and, when a prefer operator — or the root — forces
evaluation, the whole accumulated block is combined into a *single* query
delegated to the native engine, which optimizes it with its own machinery
and, through :meth:`~repro.engine.database.Database.execute`, reuses its
answer while the data version stands still.
Intermediates produced by prefer operators re-enter blocks as materialized
leaves, so the only materializations are the unavoidable ones at prefer
boundaries — and at a set operation over scored input, whose pairs are
combined per full row (see :meth:`_Evaluator._setop`).
"""

from __future__ import annotations

from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..engine.database import Database
from ..engine.physical import execute_native
from ..errors import ExecutionError
from ..obs import current_tracer
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
from . import batchscore, scorerel
from .scorerel import Intermediate

_SET_OPERATIONS = (Union, Intersect, Difference)


def execute_gbu(
    plan: PlanNode, db: Database, aggregate: AggregateFunction = F_S
) -> PRelation:
    """Execute *plan* (already optimized and widened) with the GBU strategy."""
    evaluator = _Evaluator(db, aggregate)
    deferred = evaluator.evaluate(plan)
    return evaluator.force(deferred).to_prelation()


class _Evaluator:
    """Recursive GBU evaluation.

    :meth:`evaluate` returns either a *deferred* plan — a subtree of standard
    operators whose leaves are base relations or materialized intermediates —
    or an :class:`Intermediate` (after a forcing operator).  ``embedded``
    maps each materialized leaf injected into a deferred subtree back to the
    intermediate it wraps, so the block's score relation can be derived after
    native execution.
    """

    def __init__(self, db: Database, aggregate: AggregateFunction):
        self.db = db
        self.aggregate = aggregate
        self.embedded: dict[int, Intermediate] = {}
        self.tracer = current_tracer()
        self.guard = current_guard()

    # -- traversal -----------------------------------------------------------

    def evaluate(self, plan: PlanNode) -> "PlanNode | Intermediate":
        if self.guard.enabled:
            self.guard.check()
        tracer = self.tracer
        if not tracer.enabled:
            return self._evaluate(plan)
        with tracer.span(f"gbu.{plan.kind}", label=plan.label()) as span:
            result = self._evaluate(plan)
            if isinstance(result, Intermediate):
                if result.rows is not None:
                    span.add("rows_out", len(result.rows))
                span.add("scores", len(result.scores))
            else:
                # Still accumulating into the deferred block (the paper's G).
                span.set("deferred", True)
            return result

    def _evaluate(self, plan: PlanNode) -> "PlanNode | Intermediate":
        if isinstance(plan, (Relation, Materialized)):
            return plan

        if isinstance(plan, Select):
            if plan.condition.references_score():
                child = self.force(self.evaluate(plan.child))
                return scorerel.apply_score_select(child, plan.condition)
            return self._defer_unary(plan)

        if isinstance(plan, Project):
            return self._defer_unary(plan)

        if isinstance(plan, (Join, LeftJoin, Union, Intersect, Difference)):
            left, right = map(self.evaluate, plan.children())
            if isinstance(plan, _SET_OPERATIONS) and any(map(self._is_scored, (left, right))):
                return self._setop(plan, left, right)
            return plan.with_children([self._as_deferred(left), self._as_deferred(right)])

        if isinstance(plan, Prefer):
            return self._prefer(plan)

        if isinstance(plan, TopK):
            child = self.force(self.evaluate(plan.child))
            return scorerel.apply_topk(child, plan.k, plan.by)

        raise ExecutionError(f"GBU cannot execute node {plan!r}")

    def _prefer(self, plan: Prefer) -> Intermediate:
        """Evaluate a prefer run without copying its input.

        When the run's input is a *pure* block (standard operators over base
        relations, no embedded intermediates) — the common shape after the
        optimizer pushed the prefers down — only the row source depends on
        the run's length.  A single prefer runs its conditional part through
        the native engine as ``σ_φ(block)``, so selection pushdown and index
        access paths apply, and the block itself stays deferred (lazy rows),
        exactly like the paper's prototype where prefer leaves R unchanged
        and updates R_P.  A longer run reads the block **once** and keeps its
        rows, so a later :meth:`force` is free while ``source`` still lets
        :meth:`_as_deferred` embed the block into a larger delegated query.
        Either way the rows are scored in one pass through the compiled
        preference group (:mod:`repro.core.prefgroup`).
        """
        run, aggregate = plan.run, plan.aggregate or self.aggregate
        for _ in run:
            self.db.cost.count_operator("prefer")
        child = self.evaluate(plan.child)

        block: PlanNode | None = None
        base_scores: dict = {}
        if isinstance(child, Intermediate):
            if child.rows is None:
                block = child.source  # lazy: a prefer run over one block
                base_scores = child.scores
        elif not self._has_embedded(child):
            block = child

        if block is None:
            # Impure input (filters/set-ops below): force and scan.
            forced = self.force(child)
            self.db.cost.scan(len(forced.rows))
            result = batchscore.apply_prefer_group(forced, run, aggregate)
            self.db.cost.materialize(len(result.scores))
            return result

        if len(run) == 1:
            # σ_φ carries one user's condition: run natively, never memoized.
            # Over a base relation it already is the native optimizer's plan.
            conditional = Select(block, run[0].condition)
            if not isinstance(block, Relation):
                conditional = self.db.explain_native(conditional)
            schema, rows = execute_native(conditional, self.db.catalog, self.db.cost)
        elif isinstance(block, Relation):
            # Base-relation run (the common shape after prefer pushdown):
            # read the table directly, no per-query native machinery needed.
            schema = block.schema(self.db.catalog)
            rows = list(self.db.table(block.name).rows)
            self.db.cost.scan(len(rows))
            self.db.cost.materialize(len(rows))
        else:
            schema, rows = self.db.execute(block)
            self.db.cost.materialize(len(rows))
        # Keys resolve by name: σ_φ's columns are the block's, perhaps
        # in another order.
        key_attrs = self._block_key_attrs(block, schema)
        scores = batchscore.group_scores_from_rows(
            schema, rows, key_attrs, plan.compiled(aggregate, schema), base_scores
        )
        self.db.cost.materialize(len(scores))
        return Intermediate(
            schema, None if len(run) == 1 else rows, key_attrs, scores, source=block
        )

    def _setop(self, plan: PlanNode, left, right) -> Intermediate:
        """A set operation over scored input: force both inputs, combine per row.

        The block merge looks pairs up by key, but the rows carry the left
        input's names, so a right-input key resolves to no column or to
        another one, and one input's key value can belong to a row of the
        other.  As in BU and the reference algebra, rows are the keys.
        """
        left, right = self.force(left), self.force(right)
        _, rows = self.db.execute(
            plan.with_children(
                [Materialized(left.schema, left.rows), Materialized(right.schema, right.rows)]
            )
        )
        self.db.cost.materialize(len(rows))
        return scorerel.combine_setop(plan.kind, left, right, rows, self.aggregate)

    def _block_key_attrs(self, block: PlanNode, schema) -> list[str]:
        """Qualified primary keys of the block's base relations (its R_P key).

        A block with a set operation is keyed by the full row, as
        :meth:`_setop` keys its result.
        """
        key_attrs: list[str] = []
        for node in block.walk():
            if isinstance(node, _SET_OPERATIONS):
                key_attrs = []
                break
            if isinstance(node, Relation):
                relation_schema = node.schema(self.db.catalog)
                for attr in relation_schema.primary_key:
                    qualified = relation_schema.column(attr).qualified_name
                    if qualified not in key_attrs:
                        key_attrs.append(qualified)
        if not key_attrs or not all(schema.has(a) for a in key_attrs):
            return [c.qualified_name for c in schema.columns]
        return key_attrs

    def _has_embedded(self, block: PlanNode) -> bool:
        return any(id(node) in self.embedded for node in block.walk())

    def _is_scored(self, value: "PlanNode | Intermediate") -> bool:
        return isinstance(value, Intermediate) or self._has_embedded(value)

    def _defer_unary(self, plan: PlanNode) -> PlanNode:
        child = self._as_deferred(self.evaluate(plan.children()[0]))
        return plan.with_children([child])

    def _as_deferred(self, value: "PlanNode | Intermediate") -> PlanNode:
        if isinstance(value, Intermediate):
            if value.source is not None:
                # The rows are exactly a base relation's: keep the relation
                # inside the delegated query (index access paths survive,
                # nothing is copied) and carry only the score relation.
                leaf = value.source
            else:
                leaf = Materialized(value.schema, value.rows)
            self.embedded[id(leaf)] = value
            return leaf
        return value

    # -- forcing ---------------------------------------------------------------

    def force(self, value: "PlanNode | Intermediate") -> Intermediate:
        """Run an accumulated block as one native query and derive its R_P."""
        if isinstance(value, Intermediate):
            if value.rows is None:
                # Lazy (prefer over a pure block): execute the block now.
                with self.tracer.span("gbu.force", label="lazy block") as span:
                    schema, rows = self.db.execute(value.source)
                    self.db.cost.materialize(len(rows))
                    span.add("rows_out", len(rows))
                    span.add("scores", len(value.scores))
                return Intermediate(schema, rows, value.key_attrs, value.scores)
            return value
        with self.tracer.span("gbu.force", label="block") as span:
            result = self._force_block(value)
            span.add("rows_out", len(result.rows))
            span.add("scores", len(result.scores))
        return result

    def _force_block(self, block: PlanNode) -> Intermediate:
        # Consume the entries (Alg. 2 removes executed operators from G):
        # once the forced tree is garbage-collected a future node could
        # reuse an id() and collide with a stale entry.
        embedded = [
            self.embedded.pop(id(node)) for node in block.walk() if id(node) in self.embedded
        ]
        schema, rows, probe = self.db.execute_probed(block)
        self.db.cost.materialize(len(rows))
        return scorerel.merge_embedded(
            schema, rows, embedded, self._block_key_attrs(block, schema), self.aggregate, probe
        )
