"""Static analysis helpers over extended query plans.

Used by the query parser (which must project every attribute any prefer
operator will need, plus all join attributes — §VI "System Architecture"),
by the Filter-then-Prefer strategy (which strips prefer operators to
obtain the non-preference query part ``Q_NP``), and by the prepare step
every strategy runs, which resolves condition names once for all of them.
"""

from __future__ import annotations

from ..engine.catalog import Catalog
from ..engine.schema import RESERVED_ATTRS
from .nodes import (
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


def preference_attributes(plan: PlanNode) -> set[str]:
    """Attributes used by any prefer operator in *plan* (conditional+scoring)."""
    out: set[str] = set()
    for node in plan.walk():
        if isinstance(node, Prefer):
            for preference in node.run:
                out |= preference.attributes()
    return out


def join_attributes(plan: PlanNode) -> set[str]:
    """Attributes referenced by any join condition in *plan*."""
    out: set[str] = set()
    for node in plan.walk():
        if isinstance(node, (Join, LeftJoin)):
            out |= node.condition.attributes()
    return out


def preferred_relations(plan: PlanNode) -> set[str]:
    """Base relations named by at least one preference in *plan*."""
    out: set[str] = set()
    for node in plan.walk():
        if isinstance(node, Prefer):
            for preference in node.run:
                out |= set(preference.relations)
    return out


def primary_key_attributes(plan: PlanNode, catalog: Catalog) -> set[str]:
    """Qualified primary-key attributes of every base relation in the plan.

    The execution strategies key score relations by primary keys — composite
    keys for join results — so any projection along the way must preserve
    them.  Keys of preference-free relations are kept too: they make the
    composite key of a join result unique even under fan-out.
    """
    out: set[str] = set()
    for node in plan.walk():
        if not isinstance(node, Relation) or not catalog.has_table(node.name):
            continue
        schema = node.schema(catalog)
        for attr in schema.primary_key:
            out.add(schema.column(attr).qualified_name.lower())
    return out


def qualify_preferences(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Qualify every preference's bare attributes against its relations.

    Run once by the execution engine before widening/optimizing so that
    preference conditions stay unambiguous when evaluated on join results.
    """
    if isinstance(plan, Prefer):
        child = qualify_preferences(plan.child, catalog)
        return Prefer(child, [p.qualify(catalog) for p in plan.run], plan.aggregate)
    children = plan.children()
    if not children:
        return plan
    return plan.with_children([qualify_preferences(child, catalog) for child in children])


def strip_prefers(plan: PlanNode) -> PlanNode:
    """The non-preference part ``Q_NP``: *plan* with every Prefer removed."""
    if isinstance(plan, Prefer):
        return strip_prefers(plan.child)
    children = plan.children()
    if not children:
        return plan
    return plan.with_children([strip_prefers(child) for child in children])


def required_carry_attributes(plan: PlanNode, catalog: Catalog) -> set[str]:
    """Everything a projection must keep for preference processing to work:
    prefer attributes, join attributes and affected relations' primary keys.
    """
    return (
        preference_attributes(plan)
        | join_attributes(plan)
        | primary_key_attributes(plan, catalog)
    )


def widen_projections(plan: PlanNode, extra: set[str], catalog: Catalog) -> PlanNode:
    """Rewrite every Project so attributes in *extra* survive when available.

    This implements the parser's rule of adding "projections for all
    attributes that will be used as part of a prefer operator and for all
    join attributes".  Attributes are matched by bare or qualified name
    against the projection input's schema; kept attributes are added in
    schema order after the user-requested ones.

    A projection feeding a set operation, directly or under the top-k and
    selections of its select block, keeps only its input's primary keys: the operation's inputs are positional and must stay
    union-compatible, its result is keyed by the whole row, and the prefer
    and join attributes are read by the operators below the projection.
    """
    children = plan.children()
    if children:
        if isinstance(plan, (Union, Intersect, Difference)):
            children = [_widen_set_input(child, extra, catalog) for child in children]
        else:
            children = [widen_projections(child, extra, catalog) for child in children]
        plan = plan.with_children(children)
    if not isinstance(plan, Project):
        return plan
    return _widen(plan, extra, catalog)


def _widen_set_input(plan: PlanNode, extra: set[str], catalog: Catalog) -> PlanNode:
    # A select block's TOP k and score WHERE sit above its projection, which
    # still fixes the input's columns.
    if isinstance(plan, (TopK, Select)):
        return plan.with_children([_widen_set_input(plan.child, extra, catalog)])
    if not isinstance(plan, Project):
        return widen_projections(plan, extra, catalog)
    child = widen_projections(plan.child, extra, catalog)
    return _widen(Project(child, plan.attrs), primary_key_attributes(child, catalog), catalog)


def _widen(plan: Project, extra: set[str], catalog: Catalog) -> Project:
    child_schema = plan.child.schema(catalog)
    kept = list(plan.attrs)
    kept_positions = {child_schema.index_of(a) for a in plan.attrs}
    for column in child_schema.columns:
        bare = column.name.lower()
        qualified = column.qualified_name.lower()
        if bare in extra or qualified in extra:
            position = child_schema.index_of(qualified)
            if position not in kept_positions:
                kept.append(column.qualified_name)
                kept_positions.add(position)
    if tuple(kept) == plan.attrs:
        return plan
    return Project(plan.child, kept)


def resolve_condition_names(plan: PlanNode, catalog: Catalog) -> None:
    """Resolve every selection and join condition attribute in its input.

    Raises :class:`~repro.errors.SchemaError` on the first unknown or
    ambiguous name, so such a plan fails the same way under every strategy
    before any of them executes — a strategy that pushes a selection below
    a join would otherwise resolve a bare name the join makes ambiguous.
    Selections may also filter on ``score``/``conf``; joins may not.
    """
    for node in plan.walk():
        if isinstance(node, Select):
            schema = node.child.schema(catalog)
            attrs = [
                attr
                for attr in node.condition.attributes()
                if attr.rsplit(".", 1)[-1] not in RESERVED_ATTRS
            ]
        elif isinstance(node, (Join, LeftJoin)):
            schema = node.schema(catalog)
            attrs = node.condition.attributes()
        else:
            continue
        for attr in sorted(attrs):
            schema.index_of(attr)


def prepare_plan(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """The parser step of §VI: qualify the preferences, widen every
    projection by :func:`required_carry_attributes` so score relations
    stay keyable, then :func:`resolve_condition_names` on the result.
    Keeps no memo (``ExecutionEngine.prepare`` does)."""
    plan = qualify_preferences(plan, catalog)
    plan = widen_projections(plan, required_carry_attributes(plan, catalog), catalog)
    resolve_condition_names(plan, catalog)
    return plan


def selection_conditions(plan: PlanNode) -> list:
    """All selection conditions in the plan (pre-order) — used in tests."""
    return [node.condition for node in plan.walk() if isinstance(node, Select)]


def leaf_tables(plan: PlanNode) -> list[Relation]:
    """Relation leaves in left-to-right order."""
    return [node for node in plan.walk() if isinstance(node, Relation)]


def plan_depth(plan: PlanNode) -> int:
    children = plan.children()
    if not children:
        return 1
    return 1 + max(plan_depth(child) for child in children)


def is_left_deep(plan: PlanNode) -> bool:
    """True when no binary operator has another binary operator on its right."""
    for node in plan.walk():
        if len(node.children()) == 2:
            right = node.children()[1]
            if any(len(inner.children()) == 2 for inner in right.walk()):
                return False
    return True
