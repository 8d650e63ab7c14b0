"""Reference evaluator: direct interpretation of extended plans.

Evaluates a plan bottom-up over :class:`~repro.core.prelation.PRelation`
values using the extended algebra and the prefer operator exactly as defined
in Section IV.  It makes no attempt to be fast — it is the *semantics
oracle*: every execution strategy must produce results identical to it, and
the test suite enforces that.
"""

from __future__ import annotations

from ..core import algebra
from ..core.aggregates import F_S, AggregateFunction
from ..core.prefer import prefer
from ..core.prelation import PRelation
from ..engine.catalog import Catalog
from ..errors import ExecutionError
from ..filtering import topk
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


def evaluate_reference(
    plan: PlanNode, catalog: Catalog, aggregate: AggregateFunction = F_S
) -> PRelation:
    """Evaluate *plan* over the catalog, returning the result p-relation.

    Even the oracle honors the ambient query guard (deadline, cancellation)
    at every operator boundary, so a slow reference run stays interruptible
    like every other strategy.
    """
    guard = current_guard()
    if guard.enabled:
        guard.check()
    if isinstance(plan, Relation):
        relation = PRelation.from_table(catalog.table(plan.name))
        if plan.alias and plan.alias != plan.name:
            return PRelation(plan.schema(catalog), relation.rows, relation.pairs)
        return relation
    if isinstance(plan, Materialized):
        return PRelation(plan.schema(catalog), plan.rows)
    if isinstance(plan, Select):
        return algebra.select(
            evaluate_reference(plan.child, catalog, aggregate), plan.condition
        )
    if isinstance(plan, Project):
        return algebra.project(
            evaluate_reference(plan.child, catalog, aggregate), plan.attrs
        )
    if isinstance(plan, Join):
        return algebra.join(
            evaluate_reference(plan.left, catalog, aggregate),
            evaluate_reference(plan.right, catalog, aggregate),
            plan.condition,
            aggregate,
        )
    if isinstance(plan, LeftJoin):
        return algebra.left_join(
            evaluate_reference(plan.left, catalog, aggregate),
            evaluate_reference(plan.right, catalog, aggregate),
            plan.condition,
            aggregate,
        )
    if isinstance(plan, Union):
        return algebra.union(
            evaluate_reference(plan.left, catalog, aggregate),
            evaluate_reference(plan.right, catalog, aggregate),
            aggregate,
        )
    if isinstance(plan, Intersect):
        return algebra.intersect(
            evaluate_reference(plan.left, catalog, aggregate),
            evaluate_reference(plan.right, catalog, aggregate),
            aggregate,
        )
    if isinstance(plan, Difference):
        return algebra.difference(
            evaluate_reference(plan.left, catalog, aggregate),
            evaluate_reference(plan.right, catalog, aggregate),
            aggregate,
        )
    if isinstance(plan, Prefer):
        relation = evaluate_reference(plan.child, catalog, aggregate)
        for preference in plan.run:
            relation = prefer(relation, preference, plan.aggregate or aggregate)
        return relation
    if isinstance(plan, TopK):
        return topk(evaluate_reference(plan.child, catalog, aggregate), plan.k, plan.by)
    raise ExecutionError(f"reference evaluator: unknown node {plan!r}")
