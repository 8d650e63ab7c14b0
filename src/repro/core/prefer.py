"""The prefer operator ``λ_{p,F}(R)`` (Section IV-C).

``prefer`` evaluates a preference ``p = (σ_φ, S, C)`` on a p-relation: every
tuple satisfying the conditional part receives the pair
``F(⟨S_r, C_r⟩, ⟨S(r), C⟩)`` — its previous pair combined with the
preference's score and confidence; all other tuples pass through unchanged.
Preference evaluation never filters tuples: filtering is a separate,
subsequent phase (Section V).
"""

from __future__ import annotations

from ..engine.schema import TableSchema
from ..engine.table import Row
from typing import Callable

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
    combiner = make_combiner(relation.schema, preference, aggregate)
    applied = 0
    pairs = []
    for row, pair in zip(relation.rows, relation.pairs):
        fresh = combiner(row, pair)
        if fresh is not pair:  # the combiner returns the input pair untouched
            applied += 1      # unless the conditional part matched
        pairs.append(fresh)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("rows_in", len(relation.rows))
        tracer.count("aggregate.combine", applied)
    return PRelation(relation.schema, list(relation.rows), pairs)


def make_combiner(
    schema: TableSchema,
    preference: Preference,
    aggregate: AggregateFunction = F_S,
) -> Callable[[Row, ScorePair], ScorePair]:
    """Compile the per-row core of the prefer operator against *schema*.

    The returned closure maps ``(row, current_pair)`` to the updated pair.
    Both the reference evaluator and the physical score-relation routines
    share this compilation, so their semantics cannot drift apart.
    """
    condition = preference.condition.compile(schema)
    scoring = preference.scoring.compile(schema)
    confidence = preference.confidence
    combine = aggregate.combine

    def apply(row: Row, current: ScorePair) -> ScorePair:
        if not condition(row):
            return current
        return combine(current, ScorePair(scoring(row), confidence))

    return apply
