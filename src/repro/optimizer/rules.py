"""The five heuristic transformation rules of the query optimizer (§VI-A).

1. Selections are pushed down as far as they can go (splitting conjunctions).
2. Projections are pushed down as far as possible.
3. Prefer operators are pushed down, landing just on top of a select or
   project operator, whenever applicable (Property 4.1).
4. A prefer operator over a binary operator whose preference involves
   attributes of only one input is pushed to that input (Property 4.4).
5. Several prefer operators on the same input are ordered in ascending
   selectivity of their conditional parts (Property 4.3).

Rule 1 is shared with the native optimizer
(:func:`repro.engine.native_optimizer.push_selections`), which already
respects Property 4.1 when moving selections across prefer operators.
"""

from __future__ import annotations

from ..core.preference import Preference
from ..engine.catalog import Catalog
from ..engine.native_optimizer import push_selections  # noqa: F401  (rule 1)
from ..engine.schema import TableSchema
from ..plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    PlanNode,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)
from .selectivity import preference_selectivity

# ---------------------------------------------------------------------------
# Rule 2 — projection pushdown
# ---------------------------------------------------------------------------


def push_projections(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Insert projections directly above base relations keeping only the
    attributes somebody upstream needs (Rule 2).

    "Needed" covers: the final output attributes, every selection and join
    condition, every prefer operator's conditional and scoring attributes,
    and the primary keys of all base relations (score relations are keyed by
    them).  Projections are not pushed through set operations: their inputs
    are positional, so those subtrees stay at full width.
    """
    required = _all_required_attributes(plan, catalog)
    return _prune(plan, required, catalog)


def _all_required_attributes(plan: PlanNode, catalog: Catalog) -> set[str]:
    required: set[str] = set()
    for node in plan.walk():
        if isinstance(node, Select):
            required |= node.condition.attributes()
        elif isinstance(node, (Join, LeftJoin)):
            required |= node.condition.attributes()
        elif isinstance(node, Prefer):
            required |= node.preference.attributes()
        elif isinstance(node, Project):
            required |= {a.lower() for a in node.attrs}
        elif isinstance(node, Relation):
            schema = node.schema(catalog)
            for attr in schema.primary_key:
                required.add(schema.column(attr).qualified_name.lower())
    if not isinstance(plan, (Project,)) and not any(
        isinstance(n, Project) for n in plan.walk()
    ):
        # No projection anywhere: the full width is the output; keep everything.
        return {"*"}
    return required


def _prune(plan: PlanNode, required: set[str], catalog: Catalog) -> PlanNode:
    if "*" in required:
        return plan
    if isinstance(plan, Relation):
        schema = plan.schema(catalog)
        kept = [
            column.qualified_name
            for column in schema.columns
            if column.name.lower() in required or column.qualified_name.lower() in required
        ]
        if not kept or len(kept) == len(schema.columns):
            return plan
        return Project(plan, kept)
    if isinstance(plan, (Union, Intersect, Difference)):
        return plan  # positional inputs: do not disturb
    children = plan.children()
    if not children:
        return plan
    return plan.with_children([_prune(child, required, catalog) for child in children])


# ---------------------------------------------------------------------------
# Rules 3 & 4 — prefer pushdown
# ---------------------------------------------------------------------------


def push_prefers(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Sink every prefer operator as deep as Properties 4.1/4.4 allow.

    A prefer passes through joins to the side owning all of its attributes
    (Rule 4 / Property 4.4); for intersections and differences it is pushed
    to the left input, which every result tuple comes from.  It stops just
    on top of a select, project or leaf (Rule 3), and never crosses a TopK
    or a score-referencing selection (their output depends on scores).
    Chains of prefers sink through each other (Property 4.3).  A prefer with
    its own aggregate is a barrier: it neither moves nor lets another
    prefer sink through it.
    """
    children = plan.children()
    if children:
        plan = plan.with_children([push_prefers(child, catalog) for child in children])
    if isinstance(plan, Prefer):
        return _sink(plan, catalog)
    return plan


def _sink(node: Prefer, catalog: Catalog) -> PlanNode:
    child = node.child
    preference = node.preference
    if node.aggregate is not None:
        # Properties 4.3/4.4 move a prefer across pairs combined with the
        # query's one F; an aggregate override stays where it was written.
        return node

    if isinstance(child, Prefer) and child.aggregate is None:
        # Sink through the sibling prefer (4.3), then retry at this level.
        lowered = _sink(Prefer(child.child, preference, node.aggregate), catalog)
        return Prefer(lowered, child.preference, child.aggregate)

    if isinstance(child, Join):
        side = _owning_side(preference, child.left, child.right, catalog)
        if side == "left":
            return Join(
                _sink(Prefer(child.left, preference, node.aggregate), catalog),
                child.right,
                child.condition,
            )
        if side == "right":
            return Join(
                child.left,
                _sink(Prefer(child.right, preference, node.aggregate), catalog),
                child.condition,
            )
        return node

    if isinstance(child, LeftJoin):
        # Only the preserved (left) side is safe: a prefer pushed right would
        # miss NULL-padded rows whose non-null-rejecting conditions (e.g.
        # NOT x = 1) hold after the join.
        if (
            _resolves(preference, child.left, catalog)
            and not _any_resolves(
                preference.attributes(), child.right.schema(catalog)
            )
            and preference.attributes()
        ):
            return LeftJoin(
                _sink(Prefer(child.left, preference, node.aggregate), catalog),
                child.right,
                child.condition,
            )
        return node

    if isinstance(child, (Intersect, Difference)):
        # Every result tuple of ∩ / − exists in the left input with the same
        # attribute values, so evaluating p there is equivalent (see §IV-C).
        if _resolves(preference, child.children()[0], catalog):
            lowered = _sink(
                Prefer(child.children()[0], preference, node.aggregate), catalog
            )
            return child.with_children([lowered, child.children()[1]])
        return node

    # Select / Project: Rule 3 says stop "just on top" of them.  Union: a
    # tuple may exist only in the non-pushed input, so pushing is unsound
    # without knowing λ_p leaves that input unchanged.  Leaves / TopK: stop.
    return node


def _owning_side(
    preference: Preference, left: PlanNode, right: PlanNode, catalog: Catalog
) -> str | None:
    attrs = preference.attributes()
    if not attrs:
        return None  # membership preference over the product: stay put
    left_schema = left.schema(catalog)
    right_schema = right.schema(catalog)
    on_left = all(left_schema.has(a) for a in attrs)
    on_right = all(right_schema.has(a) for a in attrs)
    if on_left and not _any_resolves(attrs, right_schema):
        return "left"
    if on_right and not _any_resolves(attrs, left_schema):
        return "right"
    return None


def _any_resolves(attrs: set[str], schema: TableSchema) -> bool:
    return any(schema.has(a) for a in attrs)


def _resolves(preference: Preference, plan: PlanNode, catalog: Catalog) -> bool:
    schema = plan.schema(catalog)
    return all(schema.has(a) for a in preference.attributes())


# ---------------------------------------------------------------------------
# Rule 5 — order prefer chains by ascending selectivity
# ---------------------------------------------------------------------------


def reorder_prefers(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Sort every maximal chain of prefer operators by ascending selectivity.

    Property 4.3 makes any order equivalent under one aggregate, so a chain
    is sorted per run of prefers sharing one; evaluating the most selective
    conditional parts first materializes fewer score-relation entries early
    (the paper's "from less to more expensive").
    """
    if isinstance(plan, Prefer):
        # Consume the whole maximal chain here rather than re-sorting every
        # suffix on the way up — that cost O(|λ|²) selectivity estimates per
        # chain, which dominated planning time for wide preference pools.
        chain: list[Prefer] = []
        node: PlanNode = plan
        while isinstance(node, Prefer) and node.aggregate is plan.aggregate:
            chain.append(node)
            node = node.child
        base = reorder_prefers(node, catalog)
        if len(chain) == 1:
            return plan if base is node else Prefer(base, plan.preference, plan.aggregate)
        ranked = sorted(
            chain, key=lambda p: preference_selectivity(p.preference, base, catalog)
        )
        rebuilt = base
        # The most selective preference must be evaluated first, i.e. sit lowest.
        for prefer_node in ranked:
            rebuilt = Prefer(rebuilt, prefer_node.preference, prefer_node.aggregate)
        return rebuilt
    children = plan.children()
    if children:
        plan = plan.with_children([reorder_prefers(child, catalog) for child in children])
    return plan
