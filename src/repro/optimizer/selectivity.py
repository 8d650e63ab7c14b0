"""Selectivity of preference conditional parts (input to Heuristic 5)."""

from __future__ import annotations

from ..core.preference import Preference
from ..engine.cardinality import estimate_condition_selectivity
from ..engine.catalog import Catalog
from ..plan.nodes import PlanNode


def preference_selectivity(
    preference: Preference, input_plan: PlanNode, catalog: Catalog
) -> float:
    """Estimated fraction of the input's tuples affected by *preference*.

    This is the selectivity of the preference's conditional part ``σ_φ`` over
    the output of *input_plan*; Heuristic 5 sorts prefer runs by it in
    ascending order so cheaper (more selective) preferences materialize fewer
    score-relation entries first.
    """
    return estimate_condition_selectivity(preference.condition, input_plan, catalog)
