"""The prefer operator ``λ_{p,F}(R)`` (Section IV-C).

``prefer`` evaluates a preference ``p = (σ_φ, S, C)`` on a p-relation: every
tuple satisfying the conditional part receives the pair
``F(⟨S_r, C_r⟩, ⟨S(r), C⟩)`` — its previous pair combined with the
preference's score and confidence; all other tuples pass through unchanged.
Preference evaluation never filters tuples: filtering is a separate,
subsequent phase (Section V).

This one-preference-at-a-time fold is the ``reference`` strategy's oracle;
the physical strategies score through :mod:`repro.core.prefgroup` and are
checked against it.
"""

from __future__ import annotations

from ..obs import current_tracer
from .aggregates import F_S, AggregateFunction
from .preference import Preference
from .prelation import PRelation
from .scorepair import ScorePair


def prefer(
    relation: PRelation,
    preference: Preference,
    aggregate: AggregateFunction = F_S,
) -> PRelation:
    """Evaluate *preference* over *relation*, returning a new p-relation.

    The input is not mutated.  Rows failing the conditional part keep their
    pair; rows satisfying it have their pair combined with
    ``⟨S(row), C⟩`` through *aggregate*.
    """
    condition = preference.condition.compile(relation.schema)
    scoring = preference.scoring.compile(relation.schema)
    confidence = preference.confidence
    combine = aggregate.combine
    applied = 0
    pairs = []
    for row, pair in zip(relation.rows, relation.pairs):
        if condition(row):
            pair = combine(pair, ScorePair(scoring(row), confidence))
            applied += 1
        pairs.append(pair)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("rows_in", len(relation.rows))
        tracer.count("aggregate.combine", applied)
    return PRelation(relation.schema, list(relation.rows), pairs)
