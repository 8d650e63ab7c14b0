"""The columnar plan evaluator: a reference-shaped walk over columns.

``evaluate_columnar`` mirrors :func:`repro.pexec.reference.evaluate_reference`
node by node — same recursion, same guard checks at operator boundaries —
but executes Select/Project/Join/LeftJoin/TopK through the columnar
operators (:mod:`.ops`) and each prefer run as one fused pass through
:func:`repro.pexec.batchscore.prefer_group` (bit-identical to the sequential
fold; falls back to the per-preference fold when batch scoring is ambiently
disabled).  Set operations are rare and not on the hot path: they delegate
to the reference algebra on materialized p-relations, which keeps them
identical by construction.

Before evaluating, the native optimizer's selection pushdown
(:func:`repro.engine.native_optimizer.push_selections`) sinks selection
conjuncts as deep as the schema allows: score-free ones below prefers,
other selects and into the resolving side of joins (only the *left* side of
a left join); score/conf ones never cross a prefer, a top-k or a join.
Every rewrite performed is exact on multisets of ``(row, pair)``: selections
are per-row and every operator below computes each output row's pair from
its input rows' pairs independently of the rest of the relation, so
filtering early removes exactly the rows a later filter would have removed,
with every surviving pair combined from the same inputs in the same order.

Unknown plan nodes raise :exc:`~repro.errors.ColumnarUnsupported`; the
engine treats that as a capability miss and re-runs the row strategy.
"""

from __future__ import annotations

from ..core import algebra
from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..engine.native_optimizer import push_selections
from ..errors import ColumnarUnsupported
from ..pexec.batchscore import prefer_group
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
from ..resilience import current_guard
from . import ops
from .column import ColumnarRelation, column_store_for


def evaluate_columnar(
    plan: PlanNode,
    db,
    aggregate: AggregateFunction = F_S,
    *,
    pushdown: bool = True,
) -> PRelation:
    """Evaluate *plan* columnar-wise against *db*, returning a p-relation.

    Exact: the result's raw ``(row, score, conf)`` triples equal the
    reference evaluator's on every supported plan (the conformance suite
    asserts this without rounding).  *pushdown* first applies the row
    optimizer's selection pushdown (Heuristic 1).
    """
    if pushdown:
        plan = push_selections(plan, db.catalog)
    return _evaluate(plan, db, aggregate).to_prelation()


def _evaluate(plan: PlanNode, db, aggregate: AggregateFunction) -> ColumnarRelation:
    guard = current_guard()
    if guard.enabled:
        guard.check()
    if isinstance(plan, Relation):
        store = column_store_for(db, plan.name)
        return ColumnarRelation(plan.schema(db.catalog), store)
    if isinstance(plan, Materialized):
        return ColumnarRelation.from_rows(plan.schema(db.catalog), plan.rows)
    if isinstance(plan, Select):
        return ops.select(_evaluate(plan.child, db, aggregate), plan.condition)
    if isinstance(plan, Project):
        return ops.project(_evaluate(plan.child, db, aggregate), plan.attrs)
    if isinstance(plan, Join):
        return ops.join(
            _evaluate(plan.left, db, aggregate),
            _evaluate(plan.right, db, aggregate),
            plan.condition,
            aggregate,
        )
    if isinstance(plan, LeftJoin):
        return ops.left_join(
            _evaluate(plan.left, db, aggregate),
            _evaluate(plan.right, db, aggregate),
            plan.condition,
            aggregate,
        )
    if isinstance(plan, Prefer):
        relation = _evaluate(plan.child, db, aggregate).to_prelation()
        relation = prefer_group(relation, plan.run, plan.aggregate or aggregate)
        return ColumnarRelation.from_rows(relation.schema, relation.rows, relation.pairs)
    if isinstance(plan, TopK):
        return ops.topk(_evaluate(plan.child, db, aggregate), plan.k, plan.by)
    if isinstance(plan, (Union, Intersect, Difference)):
        left = _evaluate(plan.left, db, aggregate).to_prelation()
        right = _evaluate(plan.right, db, aggregate).to_prelation()
        apply = {
            Union: algebra.union,
            Intersect: algebra.intersect,
            Difference: algebra.difference,
        }[type(plan)]
        result = apply(left, right, aggregate)
        return ColumnarRelation.from_rows(result.schema, result.rows, result.pairs)
    raise ColumnarUnsupported(f"columnar executor: unknown node {plan!r}")
