"""Left-deep restructuring and native join-order matching (§VI-A, end).

After the heuristic rules, the optimizer (a) re-orders join regions the way
the native optimizer would — the units carrying their pushed-down selects
and prefers along — and (b) rearranges commutative binary operators so the
plan is left-deep: during execution only two temporary relations need to be
held at a time.
"""

from __future__ import annotations

from ..engine.catalog import Catalog
from ..engine.native_optimizer import order_joins
from ..plan.nodes import Intersect, PlanNode, Union


def match_native_join_order(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Re-order join regions greedily, exactly as the native optimizer would.

    Prefer operators attached to a join input travel with it, so the
    preference placement chosen by Rules 3–5 is preserved.  Greedy ordering
    already emits left-deep join trees.
    """
    return order_joins(plan, catalog)


def left_deepen(plan: PlanNode, catalog: Catalog) -> PlanNode:
    """Swap commutative set operations so binary subtrees hang left.

    Joins are already left-deep after :func:`match_native_join_order`;
    Union/Intersect are commutative on p-relations (F is commutative), so a
    binary-operator-bearing right child can be swapped to the left.  A set
    operation is positional and names its output after its left input, so
    the swap happens only when both inputs carry the same attribute names.
    Difference is not commutative and is left as-is.
    """
    children = plan.children()
    if children:
        plan = plan.with_children([left_deepen(child, catalog) for child in children])
    if isinstance(plan, (Union, Intersect)):
        left, right = plan.children()
        if (
            _has_binary(right)
            and not _has_binary(left)
            and left.schema(catalog).attribute_names
            == right.schema(catalog).attribute_names
        ):
            return plan.with_children([right, left])
    return plan


def _has_binary(plan: PlanNode) -> bool:
    return any(len(node.children()) == 2 for node in plan.walk())
