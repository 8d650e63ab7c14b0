"""The Bottom-Up (BU) execution strategy (§VI-B).

BU performs a postorder traversal of the optimized extended plan and
executes **each operator separately**, materializing its (rows, score
relation) pair before moving on.  It is greedy: no batching, every standard
operator becomes its own native query over the already-materialized inputs.
The paper excludes BU from its plots because GBU strictly improves on it —
our Fig.-14 benchmark reproduces exactly that gap.
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


def execute_bu(
    plan: PlanNode, db: Database, aggregate: AggregateFunction = F_S
) -> PRelation:
    """Execute *plan* (already optimized and widened) with the BU strategy."""
    return _Evaluator(db, aggregate).evaluate(plan).to_prelation()


class _Evaluator:
    def __init__(self, db: Database, aggregate: AggregateFunction):
        self.db = db
        self.aggregate = aggregate
        self.tracer = current_tracer()
        self.guard = current_guard()

    # Each operator is executed through the native engine as its own query
    # over Materialized inputs, mirroring BU's one-query-per-operator shape.

    def evaluate(self, plan: PlanNode) -> Intermediate:
        if self.guard.enabled:
            self.guard.check()
        tracer = self.tracer
        if not tracer.enabled:
            return self._evaluate(plan)
        with tracer.span(f"bu.{plan.kind}", label=plan.label()) as span:
            result = self._evaluate(plan)
            if result.rows is not None:
                span.add("rows_out", len(result.rows))
            span.add("scores", len(result.scores))
            return result

    def _evaluate(self, plan: PlanNode) -> Intermediate:
        if isinstance(plan, Relation):
            table = self.db.table(plan.name)
            inter = Intermediate.from_table(table, plan.schema(self.db.catalog))
            inter.source = plan
            return inter
        if isinstance(plan, Materialized):
            return Intermediate.from_rows(plan.schema(self.db.catalog), list(plan.rows))
        if isinstance(plan, Select):
            return self._select(plan)
        if isinstance(plan, Project):
            return self._project(plan)
        if isinstance(plan, (Join, LeftJoin)):
            return self._join(plan)
        if isinstance(plan, (Union, Intersect, Difference)):
            return self._setop(plan)
        if isinstance(plan, Prefer):
            return self._prefer(plan)
        if isinstance(plan, TopK):
            child = self.evaluate(plan.child)
            return scorerel.apply_topk(child, plan.k, plan.by)
        raise ExecutionError(f"BU cannot execute node {plan!r}")

    def _prefer(self, plan: Prefer) -> Intermediate:
        run, aggregate = plan.run, plan.aggregate or self.aggregate
        for _ in run:
            self.db.cost.count_operator("prefer")
        if len(run) == 1 and isinstance(plan.child, Relation):
            # Base-relation prefer: run the conditional part natively so
            # index access paths apply (Heuristic 4's rationale), then score
            # only the qualifying rows.
            child = self._evaluate(plan.child)
            schema, qualifying = execute_native(
                Select(plan.child, run[0].condition), self.db.catalog, self.db.cost
            )
            child.scores = batchscore.group_scores_from_rows(
                schema, qualifying, child.key_attrs, plan.compiled(aggregate, schema)
            )
            self.db.cost.materialize(len(child.scores))
            return child
        child = self.evaluate(plan.child)
        # One fused pass over the materialized child for the whole run.
        self.db.cost.scan(len(child.rows))
        result = batchscore.apply_prefer_group(child, run, aggregate)
        self.db.cost.materialize(len(result.scores))
        return result

    def _native(self, plan: PlanNode) -> tuple:
        schema, rows = execute_native(plan, self.db.catalog, self.db.cost)
        self.db.cost.materialize(len(rows))
        return schema, rows

    def _as_leaf(self, inter: Intermediate) -> PlanNode:
        if inter.source is not None:
            # Unchanged base rows: reference the relation itself so the
            # per-operator query keeps its index access paths.
            return inter.source
        return Materialized(inter.schema, inter.rows)

    def _select(self, plan: Select) -> Intermediate:
        child = self.evaluate(plan.child)
        if plan.condition.references_score():
            return scorerel.apply_score_select(child, plan.condition)
        if isinstance(plan.child, Relation):
            # σ over a base table keeps its index access paths available.
            _, rows = self._native(Select(plan.child, plan.condition))
        else:
            _, rows = self._native(Select(self._as_leaf(child), plan.condition))
        return scorerel.filter_rows(child, rows)

    def _project(self, plan: Project) -> Intermediate:
        child = self.evaluate(plan.child)
        schema, rows = self._native(Project(self._as_leaf(child), plan.attrs))
        return scorerel.project_rows(child, schema, plan.attrs, rows)

    def _join(self, plan: "Join | LeftJoin") -> Intermediate:
        left = self.evaluate(plan.left)
        right = self.evaluate(plan.right)
        native = plan.with_children([self._as_leaf(left), self._as_leaf(right)])
        schema, rows = self._native(native)
        return scorerel.combine_join(left, right, schema, rows, self.aggregate)

    def _setop(self, plan: PlanNode) -> Intermediate:
        left = self.evaluate(plan.children()[0])
        right = self.evaluate(plan.children()[1])
        native = plan.with_children([self._as_leaf(left), self._as_leaf(right)])
        _, rows = self._native(native)
        return scorerel.combine_setop(plan.kind, left, right, rows, self.aggregate)
