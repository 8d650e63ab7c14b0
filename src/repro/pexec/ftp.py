"""The Filter-then-Prefer (FtP) execution strategy (Algorithm 1, §VI-B).

FtP separates the non-preference query part from preference evaluation: the
plan with every prefer operator removed (``Q_NP``) is delegated wholesale to
the native engine; the prefer operators are then evaluated directly on its
result ``R_NP`` — possible because the query parser projects every attribute
any prefer operator needs.  Join/set operators between score relations reduce
to folding all prefer operators over ``R_NP`` (F is associative and
commutative), which is exactly what this implementation does.

FtP applies per *region*: a maximal select/project/join subtree with embedded
prefer operators.  Filtering operators (top-k, score/confidence selections)
and set operations form region boundaries and are evaluated on p-relations —
so arbitrarily shaped plans (e.g. the paper's Q3) still execute, each SPJ
region going through the FtP fast path.
"""

from __future__ import annotations

from typing import Callable

from ..core import algebra
from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..engine.database import Database
from ..errors import ExecutionError
from ..filtering import topk as topk_filter
from ..obs import current_tracer
from ..resilience import current_guard
from ..plan.analysis import strip_prefers
from .batchscore import prefer_group
from .conform import conform
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

RegionFn = Callable[[PlanNode], PRelation]


def execute_ftp(
    plan: PlanNode, db: Database, aggregate: AggregateFunction = F_S
) -> PRelation:
    """Execute *plan* (already widened) with the FtP strategy."""
    return RegionEvaluator(db, aggregate, _make_ftp_region(db, aggregate)).evaluate(plan)


def is_spj_region(plan: PlanNode) -> bool:
    """True when the whole subtree is select/project/join/prefer over leaves.

    Such a subtree is what Algorithm 1 calls the query: its non-preference
    part is one native query.  Score-referencing selections and top-k depend
    on preference output and break the region.
    """
    for node in plan.walk():
        if isinstance(node, (Relation, Materialized, Project, Join, LeftJoin, Prefer)):
            continue
        if isinstance(node, Select) and not node.condition.references_score():
            continue
        return False
    return True


class RegionEvaluator:
    """Shared recursive skeleton for FtP and the plug-in baselines.

    SPJ regions go through ``region_fn``; everything else (filters, set
    operations) is interpreted over p-relations with the extended algebra.
    """

    def __init__(
        self,
        db: Database,
        aggregate: AggregateFunction,
        region_fn: RegionFn,
    ):
        self.db = db
        self.aggregate = aggregate
        self.region_fn = region_fn
        self.guard = current_guard()

    def evaluate(self, plan: PlanNode) -> PRelation:
        if self.guard.enabled:
            self.guard.check()
        tracer = current_tracer()
        if not tracer.enabled:
            return self._evaluate(plan)
        name = "region" if self._is_region(plan) else plan.kind
        with tracer.span(f"ftp.{name}", label=plan.label()) as span:
            result = self._evaluate(plan)
            span.add("rows_out", len(result))
            return result

    def _is_region(self, plan: PlanNode) -> bool:
        """An SPJ region whose prefers all fold with this evaluator's F.

        ``region_fn`` folds every preference of a region with one aggregate,
        so a prefer overriding it is a region boundary, evaluated by the
        ``Prefer`` branch of :meth:`_evaluate` with its own aggregate.
        """
        return is_spj_region(plan) and all(
            node.aggregate is None or node.aggregate is self.aggregate
            for node in plan.walk()
            if isinstance(node, Prefer)
        )

    def _set_input(self, plan: PlanNode) -> PRelation:
        """A set operation's input.  A region folds its preferences over its
        output, but the projection feeding a set operation keeps only keys
        (:func:`~repro.plan.analysis.widen_projections`): when it drops a
        preference's attribute, it projects the p-relation below it.  A
        select block's top-k and selections above that projection run over
        what it returns."""
        if isinstance(plan, TopK):
            return topk_filter(self._set_input(plan.child), plan.k, plan.by)
        if isinstance(plan, Select):
            return algebra.select(self._set_input(plan.child), plan.condition)
        if isinstance(plan, Project) and self._is_region(plan):
            schema = plan.schema(self.db.catalog)
            preferences = plan.preferences()
            if not all(schema.has(a) for p in preferences for a in p.attributes()):
                return algebra.project(self.evaluate(plan.child), plan.attrs)
        return self.evaluate(plan)

    def _evaluate(self, plan: PlanNode) -> PRelation:
        if self._is_region(plan):
            return self.region_fn(plan)
        if isinstance(plan, Select):
            return algebra.select(self.evaluate(plan.child), plan.condition)
        if isinstance(plan, Project):
            return algebra.project(self.evaluate(plan.child), plan.attrs)
        if isinstance(plan, Join):
            return algebra.join(
                self.evaluate(plan.left),
                self.evaluate(plan.right),
                plan.condition,
                self.aggregate,
            )
        if isinstance(plan, LeftJoin):
            return algebra.left_join(
                self.evaluate(plan.left),
                self.evaluate(plan.right),
                plan.condition,
                self.aggregate,
            )
        if isinstance(plan, Union):
            return algebra.union(
                self._set_input(plan.left), self._set_input(plan.right), self.aggregate
            )
        if isinstance(plan, Intersect):
            return algebra.intersect(
                self._set_input(plan.left), self._set_input(plan.right), self.aggregate
            )
        if isinstance(plan, Difference):
            return algebra.difference(
                self._set_input(plan.left), self._set_input(plan.right), self.aggregate
            )
        if isinstance(plan, Prefer):
            return prefer_group(
                self.evaluate(plan.child), plan.run, plan.aggregate or self.aggregate
            )
        if isinstance(plan, TopK):
            return topk_filter(self.evaluate(plan.child), plan.k, plan.by)
        # Relation/Materialized leaves are SPJ regions, caught above.
        raise ExecutionError(f"FtP cannot execute node {plan!r}")


def _make_ftp_region(db: Database, aggregate: AggregateFunction) -> RegionFn:
    def run_region(plan: PlanNode) -> PRelation:
        tracer = current_tracer()
        non_preference = strip_prefers(plan)
        with tracer.span("ftp.delegate") as span:
            schema, rows = db.execute(non_preference, optimize=True)
            span.add("rows_out", len(rows))
        db.cost.materialize(len(rows))
        result = conform(
            PRelation(schema, rows), non_preference.schema(db.catalog)
        )
        # Fold in preferences() order, each run as written: Property 4.3
        # makes every order algebraically equivalent, but floating-point
        # folds differ by ULPs and filtering cuts exactly.
        preferences = plan.preferences()
        if not preferences:
            return result
        for _ in preferences:
            db.cost.count_operator("prefer")
        # Fused group evaluation: one pass over the delegated result,
        # column tables + dispatch index, one computation per match key.
        db.cost.scan(len(rows))
        with tracer.span("ftp.prefer", label=f"batch |λ|={len(preferences)}") as span:
            result = prefer_group(result, preferences, aggregate)
            if tracer.enabled:
                span.add("scores", sum(1 for p in result.pairs if not p.is_default))
        return result

    return run_region
