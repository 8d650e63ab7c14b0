"""Not-dominated (skyline) filtering ([7] in the paper).

The paper lists "not-dominated" tuples as one possible filtering phase after
preference evaluation.  Two variants:

* :func:`skyline_pairs` — dominance over the ``(score, conf)`` pair itself:
  keep tuples for which no other tuple is at least as good on both score and
  confidence and strictly better on one.  ⊥ scores are dominated by every
  known score.
* :func:`skyline` — classic attribute skyline over explicit numeric
  dimensions (all maximized; pass negated values to minimize), implemented
  with the block-nested-loop algorithm.
"""

from __future__ import annotations

from typing import Sequence

from ..core.prelation import PRelation
from ..core.scorepair import ScorePair
from ..engine.table import Row
from ..errors import ExecutionError


def _pair_dominates(a: ScorePair, b: ScorePair) -> bool:
    """True when pair *a* dominates pair *b* (score and conf, ⊥ lowest)."""
    a_score = a.score if a.score is not None else float("-inf")
    b_score = b.score if b.score is not None else float("-inf")
    if a_score < b_score or a.conf < b.conf:
        return False
    return a_score > b_score or a.conf > b.conf


def skyline_pairs(relation: PRelation) -> PRelation:
    """Tuples whose ⟨score, conf⟩ pair is not dominated by any other tuple."""
    entries = list(zip(relation.rows, relation.pairs))
    kept: list[tuple[Row, ScorePair]] = []
    for row, pair in entries:
        dominated = False
        for _, other in entries:
            if _pair_dominates(other, pair):
                dominated = True
                break
        if not dominated:
            kept.append((row, pair))
    return PRelation(relation.schema, [r for r, _ in kept], [p for _, p in kept])


def skyline(relation: PRelation, attrs: Sequence[str]) -> PRelation:
    """Block-nested-loop skyline over numeric *attrs*, all maximized.

    Tuples with NULL in any dimension are dominated by definition (unknown
    values cannot defend a skyline spot).
    """
    if not attrs:
        raise ExecutionError("skyline requires at least one dimension")
    positions = [relation.schema.index_of(a) for a in attrs]

    def point(row: Row) -> tuple | None:
        values = tuple(row[i] for i in positions)
        if any(v is None for v in values):
            return None
        return values

    def dominates(a: tuple, b: tuple) -> bool:
        if any(x < y for x, y in zip(a, b)):
            return False
        return any(x > y for x, y in zip(a, b))

    window: list[tuple[tuple, Row, ScorePair]] = []
    for row, pair in relation:
        p = point(row)
        if p is None:
            continue
        dominated = False
        survivors: list[tuple[tuple, Row, ScorePair]] = []
        for wp, wrow, wpair in window:
            if dominates(wp, p):
                dominated = True
                survivors = window
                break
            if not dominates(p, wp):
                survivors.append((wp, wrow, wpair))
        if not dominated:
            survivors.append((p, row, pair))
            window = survivors
    return PRelation(
        relation.schema,
        [row for _, row, _ in window],
        [pair for _, _, pair in window],
    )
