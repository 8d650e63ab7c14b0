"""The preference-aware query optimizer (§VI-A).

Applies the five heuristic transformation rules in order, then restructures
the plan left-deep, matching the join order the native optimizer would pick.
Individual rules can be disabled through :class:`OptimizerConfig` — the
heuristics-ablation benchmark uses this to measure each rule's contribution.

The rules run the same way with or without a tracer.  A collecting tracer
only records, per rule, an ``optimize.rule`` span saying whether the rule
fired; rewrite soundness is checked by the test suite, not at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..engine.catalog import Catalog
from ..obs import current_tracer
from ..plan.nodes import PlanNode
from .leftdeep import left_deepen, match_native_join_order
from .rules import push_prefers, push_projections, push_selections, reorder_prefers

if TYPE_CHECKING:  # hints only
    from ..engine.database import Database


@dataclass(frozen=True)
class OptimizerConfig:
    """Which transformation rules to apply (all on by default)."""

    push_selections: bool = True        # Rule 1
    push_projections: bool = True       # Rule 2
    push_prefers: bool = True           # Rules 3 & 4
    reorder_prefers: bool = True        # Rule 5
    match_join_order: bool = True       # native join-order matching
    left_deep: bool = True              # left-deep restructuring

    @classmethod
    def none(cls) -> "OptimizerConfig":
        """Baseline plan: execute operators exactly as written in the query."""
        return cls(False, False, False, False, False, False)


class PreferenceOptimizer:
    """Rewrites extended query plans into more efficient equivalents.

    Given the :class:`~repro.engine.database.Database` that owns *catalog*
    as *db*, :meth:`optimize` memoizes its output in ``db.blocks`` for the
    data version (see :mod:`repro.engine.blockmemo`); without one it
    rewrites every plan it is handed.
    """

    def __init__(
        self, catalog: Catalog, config: OptimizerConfig | None = None,
        *, db: Database | None = None,
    ):
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.db = db

    def optimize(self, plan: PlanNode, tracer=None) -> PlanNode:
        """Apply the enabled rules in order, or return the plan they gave
        for this *plan* and configuration at this data version.

        Under a collecting tracer the enclosing span gets ``memo``: ``hit``
        or ``miss`` (``miss`` also without a *db*).  On a miss every rule
        gets an ``optimize.rule`` span recording whether it fired (changed
        the plan), and fired rules bump the global ``optimizer.rule_fired``
        counter.  Without a collecting tracer, no span is opened and no
        plans are compared.
        """
        if tracer is None:
            tracer = current_tracer()
        hit = False
        if self.db is None:
            plan = self._rewrite(plan, tracer)
        else:
            plan, hit = self.db.memo_plan(
                self.config, plan, lambda node: self._rewrite(node, tracer)
            )
        tracer.current().set("memo", "hit" if hit else "miss")
        return plan

    def _rewrite(self, plan: PlanNode, tracer) -> PlanNode:
        config = self.config
        rules = (
            ("push_selections", config.push_selections, push_selections),
            ("push_projections", config.push_projections, push_projections),
            ("push_prefers", config.push_prefers, push_prefers),
            ("reorder_prefers", config.reorder_prefers, reorder_prefers),
            ("match_join_order", config.match_join_order, match_native_join_order),
            ("left_deep", config.left_deep, left_deepen),
        )
        if not tracer.enabled:
            for _name, enabled, rule in rules:
                if enabled:
                    plan = rule(plan, self.catalog)
            return plan
        for name, enabled, rule in rules:
            if not enabled:
                continue
            with tracer.span("optimize.rule", label=name) as span:
                rewritten = rule(plan, self.catalog)
                fired = rewritten != plan
                span.set("fired", fired)
                if fired:
                    tracer.count("optimizer.rule_fired")
                plan = rewritten
        return plan


def optimize(plan: PlanNode, catalog: Catalog, config: OptimizerConfig | None = None) -> PlanNode:
    """Convenience one-shot entry point."""
    return PreferenceOptimizer(catalog, config).optimize(plan)
