"""Cardinality estimation for logical plans.

Shared by the native optimizer (join ordering) and the preference-aware
optimizer (Heuristic 5 orders prefer runs by the selectivity of their
conditional parts; the left-deep step matches the native join order).
"""

from __future__ import annotations

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
from .expressions import Attr, Comparison, Expr, conjuncts, is_true
from .schema import TableSchema
from .stats import DEFAULT_SELECTIVITY, estimate_selectivity


def estimate_cardinality(plan: PlanNode, catalog: Catalog) -> float:
    """Estimated number of output rows of *plan* (never below 0)."""
    if isinstance(plan, Relation):
        stats = catalog.stats(plan.name)
        if stats is not None:
            return float(stats.n_rows)
        return float(len(catalog.table(plan.name)))
    if isinstance(plan, Materialized):
        return float(len(plan.rows))
    if isinstance(plan, Select):
        child = estimate_cardinality(plan.child, catalog)
        return child * estimate_condition_selectivity(plan.condition, plan.child, catalog)
    if isinstance(plan, (Project, Prefer)):
        return estimate_cardinality(plan.children()[0], catalog)
    if isinstance(plan, TopK):
        return min(float(plan.k), estimate_cardinality(plan.child, catalog))
    if isinstance(plan, Join):
        return _estimate_join(plan, catalog)
    if isinstance(plan, LeftJoin):
        # Every left tuple survives; matches can only add rows.
        return max(
            estimate_cardinality(plan.left, catalog), _estimate_join(plan, catalog)
        )
    if isinstance(plan, Union):
        return estimate_cardinality(plan.left, catalog) + estimate_cardinality(
            plan.right, catalog
        )
    if isinstance(plan, Intersect):
        return min(
            estimate_cardinality(plan.left, catalog),
            estimate_cardinality(plan.right, catalog),
        )
    if isinstance(plan, Difference):
        return estimate_cardinality(plan.left, catalog)
    return 1.0


def estimate_condition_selectivity(
    condition: Expr, input_plan: PlanNode, catalog: Catalog
) -> float:
    """Selectivity of *condition* over the output of *input_plan*.

    Statistics are looked up per base relation: an attribute qualified with a
    table name uses that table's column statistics even deep inside a join
    tree (the usual attribute-independence assumption).
    """
    schema = input_plan.schema(catalog)
    stats = None
    if isinstance(input_plan, Relation):
        stats = catalog.stats(input_plan.name)
    if stats is not None:
        return estimate_selectivity(condition, schema, stats)
    # Derived input: estimate each conjunct against the base relation that
    # owns its attribute, when that can be determined.
    out = 1.0
    for part in conjuncts(condition):
        out *= _conjunct_selectivity(part, schema, input_plan, catalog)
    return out


def _conjunct_selectivity(
    part: Expr, schema: TableSchema, input_plan: PlanNode, catalog: Catalog
) -> float:
    owner = _owning_relation(part, input_plan, catalog)
    if owner is None:
        return estimate_selectivity(part, schema, None)
    owner_schema = catalog.table(owner).schema
    try:
        return estimate_selectivity(part, owner_schema, catalog.stats(owner))
    except Exception:
        return DEFAULT_SELECTIVITY


def _owning_relation(part: Expr, input_plan: PlanNode, catalog: Catalog) -> str | None:
    """The single base relation whose schema covers all of *part*'s attributes."""
    attrs = part.attributes()
    if not attrs:
        return None
    owner: str | None = None
    for name in input_plan.relations():
        if not catalog.has_table(name):
            continue
        schema = catalog.table(name).schema
        if all(schema.has(a) for a in attrs):
            if owner is not None:
                return None  # ambiguous
            owner = name
    return owner


def estimate_join_selectivity(
    condition: Expr, left: PlanNode, right: PlanNode, catalog: Catalog
) -> float:
    """Selectivity of a join condition (fraction of the cross product kept)."""
    left_schema = left.schema(catalog)
    right_schema = right.schema(catalog)
    out = 1.0
    for part in conjuncts(condition):
        if is_true(part):
            continue
        if (
            isinstance(part, Comparison)
            and part.op == "="
            and isinstance(part.left, Attr)
            and isinstance(part.right, Attr)
        ):
            ndv_left = _ndv(part.left.name, left, left_schema, catalog)
            ndv_right = _ndv(part.right.name, right, right_schema, catalog)
            ndv_left = ndv_left or _ndv(part.right.name, left, left_schema, catalog)
            ndv_right = ndv_right or _ndv(part.left.name, right, right_schema, catalog)
            denominator = max(ndv_left or 1.0, ndv_right or 1.0, 1.0)
            out /= denominator
        else:
            out *= DEFAULT_SELECTIVITY
    return out


def _ndv(
    attr: str, plan: PlanNode, schema: TableSchema, catalog: Catalog
) -> float | None:
    """Number of distinct values of *attr* in the subtree, from base stats."""
    if not schema.has(attr):
        return None
    bare = attr.rsplit(".", 1)[-1]
    for name in plan.relations():
        if not catalog.has_table(name):
            continue
        stats = catalog.stats(name)
        if stats is None:
            continue
        table_schema = catalog.table(name).schema
        if table_schema.has(attr) or table_schema.has(bare):
            column = stats.column(bare)
            if column is not None and column.n_distinct > 0:
                return float(column.n_distinct)
    return None


def _estimate_join(plan: Join, catalog: Catalog) -> float:
    left = estimate_cardinality(plan.left, catalog)
    right = estimate_cardinality(plan.right, catalog)
    selectivity = estimate_join_selectivity(plan.condition, plan.left, plan.right, catalog)
    return max(0.0, left * right * selectivity)
