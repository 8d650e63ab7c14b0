"""The columnar plan evaluator: a reference-shaped walk over columns.

``evaluate_columnar`` mirrors :func:`repro.pexec.reference.evaluate_reference`
node by node — same recursion, same guard checks at operator boundaries —
but executes Select/Project/Join/LeftJoin/TopK through the columnar
operators (:mod:`.ops`) and chains of adjacent ``Prefer`` nodes as one
fused pass through
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
    strict: bool = False,
) -> PRelation:
    """Evaluate *plan* columnar-wise against *db*, returning a p-relation.

    Exact: the result's raw ``(row, score, conf)`` triples equal the
    reference evaluator's on every supported plan (the conformance suite
    asserts this without rounding).  The pushdown rewrite goes through the
    same audit discipline as the row optimizer's rules (see
    :func:`audited_push_selections`); *strict* raises
    :class:`~repro.errors.RewriteViolation` on an audit failure.
    """
    if pushdown:
        plan = audited_push_selections(
            plan, db.catalog, strict=strict, aggregate=aggregate
        )
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
        return _evaluate_prefer_chain(plan, db, aggregate)
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


def _evaluate_prefer_chain(
    plan: Prefer, db, aggregate: AggregateFunction
) -> ColumnarRelation:
    """Fold a run of Prefer nodes sharing one effective aggregate as a
    single :func:`prefer_group` pass, innermost-first (the written
    preference order); a change of aggregate below is evaluated first as
    the run's child.
    """
    from ..pexec.batchscore import prefer_group, prefer_run

    chain, run_aggregate = prefer_run(plan, aggregate)
    relation = _evaluate(chain[0].child, db, aggregate).to_prelation()
    relation = prefer_group(relation, [node.preference for node in chain], run_aggregate)
    return ColumnarRelation.from_rows(relation.schema, relation.rows, relation.pairs)


# ---------------------------------------------------------------------------
# Audited selection pushdown
# ---------------------------------------------------------------------------


def audited_push_selections(
    plan: PlanNode, catalog, *, strict: bool = False, aggregate=None
) -> PlanNode:
    """The native selection pushdown under the row optimizer's audit discipline.

    The rewrite is :func:`repro.engine.native_optimizer.push_selections` (the
    row optimizer's Heuristic 1), audited under the rule name
    ``columnar.push_selections``.  Mirrors ``PreferenceOptimizer.optimize``
    exactly: without a collecting tracer and without *strict*, the rewrite
    runs unaudited (zero overhead);
    otherwise every fire gets an ``optimize.rule`` span, the (before, after)
    pair goes through :class:`~repro.analysis_static.RewriteAuditor`, error
    findings bump ``optimizer.rewrite_violation``, and *strict* raises
    :class:`~repro.errors.RewriteViolation`.
    """
    from ..obs import current_tracer

    tracer = current_tracer()
    if not tracer.enabled and not strict:
        return push_selections(plan, catalog)

    from ..analysis_static.auditor import RewriteAuditor
    from ..analysis_static.diagnostics import Severity
    from ..errors import RewriteViolation

    name = "columnar.push_selections"
    with tracer.span("optimize.rule", label=name) as span:
        pushed = push_selections(plan, catalog)
        fired = pushed != plan
        span.set("fired", fired)
        if not fired:
            return pushed
        tracer.count("optimizer.rule_fired")
        auditor = RewriteAuditor(catalog, default_aggregate=aggregate)
        diagnostics = auditor.audit(name, plan, pushed)
        if diagnostics:
            span.set("diagnostics", [str(d) for d in diagnostics])
            violations = [d for d in diagnostics if d.severity is Severity.ERROR]
            if violations:
                tracer.count("optimizer.rewrite_violation", len(violations))
                if strict:
                    raise RewriteViolation(name, violations)
        return pushed
