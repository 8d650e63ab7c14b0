"""The "native" query optimizer: pushdowns and join ordering.

This plays the role of the conventional DBMS optimizer underneath the
preference layer.  It is deliberately classical: selections are pushed down
as far as their attributes allow, and join regions are re-ordered greedily
into left-deep trees by estimated cardinality.  Both routines are
preference-aware *only* to the extent of being sound: a selection never
crosses a prefer operator unless Property 4.1 allows it, and prefer nodes
travel with the subtree they are attached to during join re-ordering.

The preference optimizer (:mod:`repro.optimizer`) reuses these routines for
its Heuristic 1 (push selections) and for matching the native join order.
"""

from __future__ import annotations

from ..plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    PlanNode,
    Prefer,
    Project,
    Select,
    TopK,
    Union,
)
from .cardinality import estimate_cardinality
from .catalog import Catalog
from .expressions import TRUE, Expr, conjoin, conjuncts, is_true
from .schema import TableSchema


def optimize_native(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Push selections down and re-order joins (classical heuristics)."""
    plan = push_selections(plan, catalog)
    plan = order_joins(plan, catalog)
    return plan


# ---------------------------------------------------------------------------
# Selection pushdown
# ---------------------------------------------------------------------------


def push_selections(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Push every selection conjunct as far down the plan as it can go.

    Conjuncts referencing ``score``/``conf`` never cross a Prefer (they
    depend on its output — Property 4.1's precondition) nor a TopK; ordinary
    conjuncts sink to the lowest subtree whose schema covers their
    attributes.
    """
    return _push(plan, [], catalog)


def _push(plan: PlanNode, pending: list[Expr], catalog: Catalog) -> PlanNode:
    if isinstance(plan, Select):
        return _push(plan.child, pending + conjuncts(plan.condition), catalog)

    if isinstance(plan, Project):
        # Conditions arriving from above only mention projected attributes,
        # which exist below the projection under the same names.
        child = _push(plan.child, pending, catalog)
        return Project(child, plan.attrs)

    if isinstance(plan, Prefer):
        through = [c for c in pending if not c.references_score()]
        blocked = [c for c in pending if c.references_score()]
        child = _push(plan.child, through, catalog)
        # A selection that sat between two runs is gone: they become one.
        return _wrap(Prefer.over(child, plan.run, plan.aggregate), blocked)

    if isinstance(plan, TopK):
        # σ(top-k(R)) ≠ top-k(σ(R)): nothing passes a filtering operator.
        child = _push(plan.child, [], catalog)
        return _wrap(TopK(child, plan.k, plan.by), pending)

    if isinstance(plan, Join):
        # Score/conf conjuncts filter the pair a tuple carries *at this
        # height*; folding them into the join condition would turn a pair
        # filter into a join predicate.  They stay above the join.
        blocked = [c for c in pending if c.references_score()]
        passed = [c for c in pending if not c.references_score()]
        all_parts = passed + conjuncts(plan.condition)
        left_schema = plan.left.schema(catalog)
        right_schema = plan.right.schema(catalog)
        left_parts: list[Expr] = []
        right_parts: list[Expr] = []
        join_parts: list[Expr] = []
        for part in all_parts:
            if is_true(part):
                continue
            side = _side_of(part, left_schema, right_schema)
            if side == "left":
                left_parts.append(part)
            elif side == "right":
                right_parts.append(part)
            else:
                join_parts.append(part)
        left = _push(plan.left, left_parts, catalog)
        right = _push(plan.right, right_parts, catalog)
        return _wrap(Join(left, right, conjoin(join_parts)), blocked)

    if isinstance(plan, LeftJoin):
        # Only conditions on the preserved (left) side may sink: filtering
        # the right input or the padded output would change outer-join
        # semantics for non-null-rejecting predicates.
        left_schema = plan.left.schema(catalog)
        left_parts = [
            p
            for p in pending
            if not p.references_score()
            and p.attributes()
            and all(left_schema.has(a) for a in p.attributes())
        ]
        blocked = [p for p in pending if p not in left_parts]
        left = _push(plan.left, left_parts, catalog)
        right = _push(plan.right, [], catalog)
        return _wrap(LeftJoin(left, right, plan.condition), blocked)

    if isinstance(plan, (Union, Intersect, Difference)):
        # Set-operation inputs may differ in attribute names; conditions stay above.
        left = _push(plan.children()[0], [], catalog)
        right = _push(plan.children()[1], [], catalog)
        return _wrap(plan.with_children([left, right]), pending)

    # Leaves (Relation / Materialized).
    return _wrap(plan, pending)


def _side_of(part: Expr, left: TableSchema, right: TableSchema) -> str:
    attrs = part.attributes()
    if not attrs or part.references_score():
        return "join"
    if all(left.has(a) for a in attrs):
        return "left"
    if all(right.has(a) for a in attrs):
        return "right"
    return "join"


def _wrap(plan: PlanNode, parts: list[Expr]) -> PlanNode:
    condition = conjoin(parts)
    if is_true(condition):
        return plan
    return Select(plan, condition)


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


def order_joins(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Greedily re-order every maximal region of inner joins, left-deep.

    Each region's units (non-Join subtrees, recursively optimized) are
    combined starting from the smallest estimated input, repeatedly joining
    the connected unit that minimizes the estimated intermediate size; cross
    products are taken only when no connected unit remains.  This mirrors
    what a System-R-style optimizer would pick on our workloads and yields a
    deterministic "native join order" the preference optimizer can match.
    """
    if isinstance(plan, Join):
        units, parts = _collect_region(plan)
        units = [order_joins(unit, catalog) for unit in units]
        return _greedy_order(units, parts, catalog)
    children = plan.children()
    if not children:
        return plan
    return plan.with_children([order_joins(child, catalog) for child in children])


def _collect_region(plan: PlanNode) -> tuple[list[PlanNode], list[Expr]]:
    """Flatten a maximal Join subtree into units and join conjuncts."""
    if isinstance(plan, Join):
        left_units, left_parts = _collect_region(plan.left)
        right_units, right_parts = _collect_region(plan.right)
        own = [p for p in conjuncts(plan.condition) if not is_true(p)]
        return left_units + right_units, left_parts + right_parts + own
    return [plan], []


def _greedy_order(
    units: list[PlanNode], parts: list[Expr], catalog: Catalog
) -> PlanNode:
    remaining_units = list(units)
    remaining_parts = list(parts)
    sizes = {id(u): estimate_cardinality(u, catalog) for u in remaining_units}
    schemas = {id(u): u.schema(catalog) for u in remaining_units}

    current = min(remaining_units, key=lambda u: sizes[id(u)])
    remaining_units.remove(current)
    current_schema = schemas[id(current)]

    while remaining_units:
        best = None
        best_plan = None
        best_size = None
        best_schema = None
        for unit in remaining_units if remaining_parts else ():
            unit_schema = schemas[id(unit)]
            combined = current_schema.join(unit_schema)
            applicable = [
                p
                for p in remaining_parts
                if _covered(p, current_schema, unit_schema, combined)
            ]
            if not applicable:
                continue
            candidate = Join(current, unit, conjoin(applicable))
            size = estimate_cardinality(candidate, catalog)
            if best_size is None or size < best_size:
                best, best_plan, best_size, best_schema = unit, candidate, size, combined
        if best is None:
            # No connected unit: cross product with the smallest one.
            best = min(remaining_units, key=lambda u: sizes[id(u)])
            best_plan = Join(current, best, TRUE)
        assert best_plan is not None
        used = (
            conjuncts(best_plan.condition) if not is_true(best_plan.condition) else []
        )
        remaining_parts = [p for p in remaining_parts if p not in used]
        remaining_units.remove(best)
        if best_schema is None:
            best_schema = current_schema.join(schemas[id(best)])
        current_schema = best_schema
        current = best_plan

    leftover = conjoin(remaining_parts)
    if not is_true(leftover):
        current = Select(current, leftover)
    return current


def _covered(
    part: Expr, left: TableSchema, right: TableSchema, combined: TableSchema
) -> bool:
    """True when *part* references both sides and is fully resolvable in
    *combined*, the schema of ``left ⋈ right``."""
    attrs = part.attributes()
    if not attrs:
        return False
    if not all(combined.has(a) for a in attrs):
        return False
    touches_left = any(left.has(a) for a in attrs)
    touches_right = any(right.has(a) for a in attrs)
    return touches_left and touches_right
