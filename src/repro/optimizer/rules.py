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
            for preference in node.run:
                required |= preference.attributes()
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
    """Sink every preference of every prefer run as deep as Properties
    4.1/4.4 allow.

    A preference passes through joins to the side owning all of its
    attributes (Rule 4 / Property 4.4); for intersections and differences it
    is pushed to the left input, which every result tuple comes from.  It
    stops just on top of a select, project or leaf (Rule 3), and never
    crosses a TopK or a score-referencing selection (their output depends on
    scores).  A run splits by owning side in one pass; preferences landing
    on one input form one run there, after those already on it, in the
    order written (Property 4.3).  A run with its own aggregate is a
    barrier: it neither moves nor lets another run sink through it.
    """
    children = plan.children()
    if children:
        plan = plan.with_children([push_prefers(child, catalog) for child in children])
    if isinstance(plan, Prefer) and plan.aggregate is None:
        return _sink(plan.child, plan.run, catalog)
    return plan


def _sink(child: PlanNode, run: tuple[Preference, ...], catalog: Catalog) -> PlanNode:
    """*child* under the query-default run *run*, each preference sunk."""
    if isinstance(child, Prefer) and child.aggregate is None:
        # Property 4.3: the run below already sank; sink both as one run.
        return _sink(child.child, child.run + run, catalog)
    if not isinstance(child, (Join, LeftJoin, Intersect, Difference)):
        # Select / Project: Rule 3 says stop "just on top" of them.  Union: a
        # tuple may exist only in the non-pushed input, so pushing is unsound
        # without knowing λ_p leaves that input unchanged.  Leaves / TopK / a
        # run with its own aggregate: stop.
        return Prefer(child, run)
    inputs = child.children()
    schemas = [node.schema(catalog) for node in inputs]
    parts: tuple[list[Preference], list[Preference]] = ([], [])
    here: list[Preference] = []
    for preference in run:
        side = _target_input(preference, child, schemas)
        (here if side is None else parts[side]).append(preference)
    if parts[0] or parts[1]:
        child = child.with_children(
            [
                _sink(node, tuple(part), catalog) if part else node
                for node, part in zip(inputs, parts)
            ]
        )
    return Prefer(child, here) if here else child


def _target_input(
    preference: Preference, child: PlanNode, schemas: list[TableSchema]
) -> int | None:
    """The input of the binary *child* (0 left, 1 right) that *preference*
    sinks into, or ``None`` when it stays above."""
    attrs = preference.attributes()
    left, right = schemas
    on_left = all(left.has(a) for a in attrs)
    if isinstance(child, Join):
        if not attrs:
            return None  # membership preference over the product: stay put
        if on_left and not _any_resolves(attrs, right):
            return 0
        if all(right.has(a) for a in attrs) and not _any_resolves(attrs, left):
            return 1
        return None
    if isinstance(child, LeftJoin):
        # Only the preserved (left) side is safe: a prefer pushed right would
        # miss NULL-padded rows whose non-null-rejecting conditions (e.g.
        # NOT x = 1) hold after the join.
        return 0 if attrs and on_left and not _any_resolves(attrs, right) else None
    # Every result tuple of ∩ / − exists in the left input with the same
    # attribute values, so evaluating p there is equivalent (see §IV-C).
    return 0 if on_left else None


def _any_resolves(attrs: set[str], schema: TableSchema) -> bool:
    return any(schema.has(a) for a in attrs)


# ---------------------------------------------------------------------------
# Rule 5 — order prefer runs by ascending selectivity
# ---------------------------------------------------------------------------


def reorder_prefers(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Sort every prefer run by ascending selectivity, stably.

    Property 4.3 makes any order equivalent under one aggregate; evaluating
    the most selective conditional parts first materializes fewer
    score-relation entries early (the paper's "from less to more
    expensive").  Equally selective preferences keep their order, so the
    rule's output is its own fixed point.
    """
    children = plan.children()
    if children:
        plan = plan.with_children([reorder_prefers(child, catalog) for child in children])
    if isinstance(plan, Prefer) and len(plan.run) > 1:
        # The most selective preference is evaluated first: it leads the run.
        ranked = sorted(
            plan.run, key=lambda p: preference_selectivity(p, plan.child, catalog)
        )
        return Prefer(plan.child, ranked, plan.aggregate)
    return plan
