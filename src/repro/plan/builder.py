"""Fluent construction of extended query plans.

The paper's preferential queries (Section V) compose base relations,
extended operators and prefer operators.  :class:`PlanBuilder` provides a
compact notation for writing them in Python::

    plan = (
        scan("MOVIES").select(eq("year", 2011))
        .natural_join(scan("GENRES").prefer(p1), catalog)
        .project(["title"])
        .top(10, by="score")
        .build()
    )
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # break the core ↔ plan import cycle: hints only
    from ..core.aggregates import AggregateFunction
    from ..core.preference import Preference

from ..engine.catalog import Catalog
from ..engine.expressions import Attr, Comparison, Expr, conjoin
from ..errors import PlanError
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


def natural_join_condition(
    catalog: Catalog, left: PlanNode, right: PlanNode
) -> Expr:
    """Equality of every bare attribute name the two subtrees share.

    Attribute references are qualified so the combined schema stays
    unambiguous (the paper's schema joins on shared key columns, e.g.
    ``MOVIES ⋈ DIRECTORS`` on ``d_id``).
    """
    left_schema = left.schema(catalog)
    right_schema = right.schema(catalog)
    left_names = {c.name.lower(): c.qualified_name for c in left_schema.columns}
    common: list[Expr] = []
    for column in right_schema.columns:
        bare = column.name.lower()
        if bare in left_names:
            common.append(
                Comparison("=", Attr(left_names[bare]), Attr(column.qualified_name))
            )
    if not common:
        raise PlanError(
            f"no common attributes between {left.label()} and {right.label()}"
        )
    return conjoin(common)


class PlanBuilder:
    """Immutable fluent wrapper around a :class:`PlanNode`."""

    __slots__ = ("node",)

    def __init__(self, node: PlanNode):
        self.node = node

    def build(self) -> PlanNode:
        """Unwrap the constructed plan."""
        return self.node

    # -- unary ------------------------------------------------------------------

    def select(self, condition: Expr) -> "PlanBuilder":
        """``σ_condition`` over the current plan."""
        return PlanBuilder(Select(self.node, condition))

    def project(self, attrs: Sequence[str]) -> "PlanBuilder":
        """``π_attrs`` over the current plan."""
        return PlanBuilder(Project(self.node, attrs))

    def prefer(
        self, preference: Preference, aggregate: AggregateFunction | None = None
    ) -> "PlanBuilder":
        """``λ_preference`` over the current plan, extending the run on top
        when it has the same aggregate."""
        return PlanBuilder(Prefer.over(self.node, [preference], aggregate))

    def prefer_all(self, preferences: Sequence[Preference]) -> "PlanBuilder":
        """The *preferences*, in order, as one run over the current plan."""
        if not preferences:
            return self
        return PlanBuilder(Prefer.over(self.node, preferences))

    def top(self, k: int, by: str = "score") -> "PlanBuilder":
        """``top(k, score|conf)`` filtering over the current plan."""
        return PlanBuilder(TopK(self.node, k, by))

    # -- binary ------------------------------------------------------------------

    def join(self, other: "PlanBuilder | PlanNode", on: Expr) -> "PlanBuilder":
        """Inner θ-join with *other* on the given condition."""
        return PlanBuilder(Join(self.node, _unwrap(other), on))

    def natural_join(
        self, other: "PlanBuilder | PlanNode", catalog: Catalog
    ) -> "PlanBuilder":
        """Inner join on all attribute names the two sides share."""
        right = _unwrap(other)
        condition = natural_join_condition(catalog, self.node, right)
        return PlanBuilder(Join(self.node, right, condition))

    def left_join(self, other: "PlanBuilder | PlanNode", on: Expr) -> "PlanBuilder":
        """LEFT OUTER θ-join: unmatched left tuples survive NULL-padded."""
        return PlanBuilder(LeftJoin(self.node, _unwrap(other), on))

    def natural_left_join(
        self, other: "PlanBuilder | PlanNode", catalog: Catalog
    ) -> "PlanBuilder":
        """LEFT OUTER join on all shared attribute names."""
        right = _unwrap(other)
        condition = natural_join_condition(catalog, self.node, right)
        return PlanBuilder(LeftJoin(self.node, right, condition))

    def union(self, other: "PlanBuilder | PlanNode") -> "PlanBuilder":
        """``∪_F`` with *other* (duplicates merged through F)."""
        return PlanBuilder(Union(self.node, _unwrap(other)))

    def intersect(self, other: "PlanBuilder | PlanNode") -> "PlanBuilder":
        """``∩_F`` with *other*."""
        return PlanBuilder(Intersect(self.node, _unwrap(other)))

    def difference(self, other: "PlanBuilder | PlanNode") -> "PlanBuilder":
        """``−`` with *other* (left pairs kept)."""
        return PlanBuilder(Difference(self.node, _unwrap(other)))


def _unwrap(value: "PlanBuilder | PlanNode") -> PlanNode:
    return value.node if isinstance(value, PlanBuilder) else value


def scan(name: str, alias: str | None = None) -> PlanBuilder:
    """Start a plan from a base relation."""
    return PlanBuilder(Relation(name, alias))
