"""Top-k filtering: ``top(k, score|conf)`` (paper Example 9).

Selecting the k most highly ranked tuples is a *filtering* phase applied
after preference evaluation.  The order is total and deterministic — ties on
the ranking value are broken by the tuple's attribute values — so every
execution strategy cuts the same k tuples and can be compared against the
reference evaluator exactly.  ⊥ scores rank below every known score.

Tie-breaking must not depend on the physical column order (the optimizer is
free to permute it), so the attribute comparison walks the columns in
qualified-name order, which is identical across all equivalent plans.

:func:`rank_key` is the specification of that order.  :func:`topk` ranks
before it tie-breaks: one quantized float per known value finds the k-th
rank, and only the rows at or above it build the all-columns tie-break key.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import compress, repeat
from operator import contains, countOf, gt, is_not, itemgetter, le
from typing import Sequence

from ..core.prelation import PRelation
from ..core.scorepair import ScorePair
from ..engine.schema import TableSchema
from ..engine.table import Row
from ..errors import ExecutionError


def canonical_column_order(schema: TableSchema) -> tuple[int, ...]:
    """Column positions ordered by qualified attribute name."""
    return tuple(
        sorted(range(len(schema.columns)), key=lambda i: schema.columns[i].qualified_name.lower())
    )


def row_sort_key(row: Row, order: Sequence[int]) -> tuple:
    """A total-order key over rows that may contain NULLs (None sorts last)."""
    return tuple(
        (row[i] is None, 0 if row[i] is None else row[i]) for i in order
    )


#: Ranking quantum: scores produced by algebraically equivalent fold orders
#: (Property 4.3 lets strategies combine pairs in any order) differ by ULPs;
#: quantizing the ranking value keeps those near-ties from flipping the cut.
_RANK_DECIMALS = 9


def rank_key(row: Row, pair: ScorePair, by: str, order: Sequence[int]) -> tuple:
    """Sort key: higher score/conf first, ⊥ last, ties broken by the row."""
    value = pair.score if by == "score" else pair.conf
    return (
        value is None,
        -round(value if value is not None else 0.0, _RANK_DECIMALS),
        row_sort_key(row, order),
    )


def above_default(pairs: Sequence[ScorePair], k: int, by: str) -> bool:
    """True when at least *k* of *pairs* rank strictly above ⟨⊥, 0⟩.

    By score that is a known score (⊥ ranks last); by conf a confidence
    above 0 at the ranking's rounding — one that rounds to 0 ties the
    default pair's, and the row tie-break decides between them.
    """
    if by == "score":
        return len(pairs) - countOf(map(itemgetter(0), pairs), None) >= k
    confs = map(round, map(itemgetter(1), pairs), repeat(_RANK_DECIMALS))
    return sum(map(gt, confs, repeat(0.0))) >= k


def topk(relation: PRelation, k: int, by: str = "score") -> PRelation:
    """The k best tuples of *relation* ordered by ``score`` or ``conf``.

    Exactly ``sorted(relation, key=rank_key)[:k]``, computed rank first:
    each row with a known value gets one quantized float (rounded once per
    distinct value), the k-th smallest of those is the cut, and only the
    rows ranked at or above it — the strictly better ones plus the boundary
    group tied with the k-th — pay for the all-columns tie-break, taken by a
    k-smallest selection, not a sort.  Without a NULL in the cut, a row's
    values in canonical order compare exactly as its :func:`row_sort_key`.
    ⊥ ranks after every known value, so ⊥ rows reach the cut only when
    fewer than k values are known; then every row is in the boundary group.
    """
    if by not in ("score", "conf"):
        raise ExecutionError(f"top-k orders by 'score' or 'conf', got {by!r}")
    if k <= 0:
        raise ExecutionError(f"top-k requires k >= 1, got {k}")
    rows, pairs = relation.rows, relation.pairs
    order = canonical_column_order(relation.schema)
    value_of = itemgetter(0 if by == "score" else 1)
    known = list(compress(range(len(pairs)), map(is_not, map(value_of, pairs), repeat(None))))
    if len(known) < k:
        chosen = sorted(range(len(rows)), key=lambda i: rank_key(rows[i], pairs[i], by, order))
    else:
        known_values = list(map(value_of, map(pairs.__getitem__, known)))
        rank_of = {value: -round(value, _RANK_DECIMALS) for value in set(known_values)}
        ranks = list(map(rank_of.__getitem__, known_values))
        kth = heapq.nsmallest(k, ranks)[-1]
        inside = list(map(le, ranks, repeat(kth)))
        cut = list(compress(known, inside))
        cut_rows = list(map(rows.__getitem__, cut))
        if any(map(contains, cut_rows, repeat(None))):
            row_key = partial(row_sort_key, order=order)
        else:
            row_key = itemgetter(*order)
        # Known values only: (rank, row) orders the cut exactly as rank_key,
        # and the row index keeps equal rows in input order, as a stable
        # sort would.
        ranked = zip(compress(ranks, inside), map(row_key, cut_rows), cut)
        chosen = [i for _, _, i in heapq.nsmallest(k, ranked)]
    del chosen[k:]
    return PRelation(relation.schema, [rows[i] for i in chosen], [pairs[i] for i in chosen])
