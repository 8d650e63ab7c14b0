"""Physical score-relation machinery shared by the execution strategies.

An :class:`Intermediate` is the paper's execution-time pair ``(R_i, R_Pi)``:
the materialized base rows of an operator's output plus its score relation —
a sparse map from primary-key values to non-default ⟨score, conf⟩ pairs
(§VI, "Implementing p-relations").  The helpers here implement the two-step
evaluation of §VI: run the conventional operation on base rows (done by the
caller through the native engine), then derive the result's score relation
from the inputs' score relations.  Prefer operators derive theirs through
the compiled preference group (:mod:`repro.pexec.batchscore`).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter
from typing import Sequence

from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..core.scorepair import IDENTITY, ScorePair
from ..engine.blockmemo import Probe
from ..engine.schema import TableSchema
from ..engine.table import Row, Table, row_getter
from ..errors import ExecutionError
from ..obs import current_tracer


class Intermediate:
    """Materialized operator output: rows plus their sparse score relation.

    ``key_attrs`` names the columns (by qualified name where possible) whose
    values key the score relation; for base relations this is the primary
    key, for joins the concatenation of the inputs' keys, for set-operation
    results the full column list.  Every key attribute must be present in
    ``schema`` — the execution engine widens projections to guarantee it.
    """

    __slots__ = ("schema", "rows", "key_attrs", "scores", "source", "pairs", "covered")

    def __init__(
        self,
        schema: TableSchema,
        rows: list[Row] | None,
        key_attrs: Sequence[str],
        scores: dict[tuple, ScorePair] | None = None,
        source: object | None = None,
        pairs: list[ScorePair] | None = None,
        covered: list[int] | None = None,
    ):
        self.schema = schema
        #: ``None`` marks a *lazy* intermediate: the rows are exactly what
        #: natively executing ``source`` yields, and are only produced when
        #: somebody genuinely needs them (GBU's prefer-over-pure-block path).
        self.rows = rows
        self.key_attrs = tuple(key_attrs)
        for attr in self.key_attrs:
            if not schema.has(attr):
                raise ExecutionError(
                    f"score-relation key attribute {attr!r} is missing from the "
                    "intermediate schema; the plan was not widened "
                    "(see required_carry_attributes)"
                )
        self.scores: dict[tuple, ScorePair] = scores if scores is not None else {}
        #: When set, a plan node (typically a base Relation) whose native
        #: execution regenerates exactly ``rows``.  The execution strategies
        #: then keep the *relation* in their delegated queries — preserving
        #: index access paths — and only carry the score relation alongside,
        #: exactly like the paper's prototype (prefer leaves R unchanged and
        #: updates R_P).
        self.source = source
        #: Each row's pair, aligned with ``rows``, when the producer derived
        #: them row by row anyway (joins, forced blocks): ``to_prelation``
        #: then skips the per-row key probe.  ``None`` otherwise.
        self.pairs = pairs
        #: With ``pairs``: the positions of the rows holding a non-default
        #: pair, ascending (every other row holds ⟨⊥, 0⟩).  ``None`` when
        #: the producer did not record them.
        self.covered = covered

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table, schema: TableSchema | None = None) -> "Intermediate":
        schema = schema or table.schema
        if table.schema.primary_key:
            key_attrs = [
                schema.columns[table.schema.index_of(a)].qualified_name
                for a in table.schema.primary_key
            ]
        else:
            key_attrs = [c.qualified_name for c in schema.columns]
        return cls(schema, list(table.rows), key_attrs)

    @classmethod
    def from_rows(
        cls, schema: TableSchema, rows: list[Row], key_attrs: Sequence[str] | None = None
    ) -> "Intermediate":
        if key_attrs is None:
            key_attrs = [c.qualified_name for c in schema.columns]
        return cls(schema, rows, key_attrs)

    # -- keys --------------------------------------------------------------------

    def key_positions(self) -> tuple[int, ...]:
        return tuple(self.schema.index_of(a) for a in self.key_attrs)

    def key_fn(self):
        positions = self.key_positions()
        if positions == tuple(range(len(self.schema.columns))):
            return lambda row: row
        return row_getter(positions)

    # -- conversion -----------------------------------------------------------------

    def to_prelation(self) -> PRelation:
        if self.rows is None:
            raise ExecutionError(
                "lazy intermediate has no materialized rows; force it first"
            )
        pairs = self.pairs
        if pairs is None:
            pairs = _pairs_of_rows(self.rows, self.key_positions(), self.scores, IDENTITY)
        return PRelation(self.schema, self.rows, pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Intermediate({len(self.rows)} rows, {len(self.scores)} scored, "
            f"key={self.key_attrs})"
        )


# ---------------------------------------------------------------------------
# Operator-level score-relation derivations
# ---------------------------------------------------------------------------


def filter_rows(inter: Intermediate, rows: list[Row]) -> Intermediate:
    """A selection's result: surviving rows, score relation pruned to them.

    The paper filters non-qualifying tuples "from both relations".
    """
    scores = inter.scores
    kept = {k: scores[k] for k in map(inter.key_fn(), rows) if k in scores} if scores else {}
    return Intermediate(inter.schema, rows, inter.key_attrs, kept)


def project_rows(
    inter: Intermediate, schema: TableSchema, attrs: Sequence[str], rows: list[Row]
) -> Intermediate:
    """A projection's result; key attributes must survive the projection."""
    old_positions = {inter.schema.index_of(a) for a in inter.key_attrs}
    kept_positions = [inter.schema.index_of(a) for a in attrs]
    if not old_positions.issubset(set(kept_positions)):
        raise ExecutionError(
            "projection drops score-relation key attributes; widen the plan "
            "with required_carry_attributes before executing"
        )
    # Keys are value-based, so they survive as long as the columns do.
    new_key_attrs = [
        schema.columns[kept_positions.index(inter.schema.index_of(a))].qualified_name
        for a in inter.key_attrs
    ]
    return Intermediate(schema, rows, new_key_attrs, dict(inter.scores))


def combine_join(
    left: Intermediate,
    right: Intermediate,
    schema: TableSchema,
    rows: list[Row],
    aggregate: AggregateFunction = F_S,
) -> Intermediate:
    """A join's score relation: per result tuple, ``F(pair_left, pair_right)``.

    The result key is the concatenation of the input keys (the composite
    primary key of the §VI prototype).
    """
    left_width = len(left.schema.columns)
    left_positions = left.key_positions()
    right_positions = tuple(p + left_width for p in right.key_positions())
    key_attrs = [schema.columns[p].qualified_name for p in left_positions] + [
        schema.columns[p].qualified_name for p in right_positions
    ]
    if not (left.scores or right.scores):
        return Intermediate(schema, rows, key_attrs)
    scores, pairs, covered, combined = _fold_lookups(
        rows,
        [(left_positions, left.scores), (right_positions, right.scores)],
        row_getter(left_positions + right_positions),
        aggregate,
    )
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("aggregate.combine", combined)
    return Intermediate(schema, rows, key_attrs, scores, pairs=pairs, covered=covered)


def _pairs_of_rows(
    rows: Sequence[Row], positions: Sequence[int], scores: dict, default=None
) -> list:
    """Per row, the pair *scores* holds for its key at *positions*.

    The key extraction and the probe run as ``map`` kernels.  A one-column
    key probes a copy of the sparse score relation re-keyed by the bare
    value (``O(|R_P|)``), so no per-row key tuple is built.
    """
    if not scores:
        return [default] * len(rows)
    if len(positions) == 1:
        scores = {key[0]: pair for key, pair in scores.items()}
    return list(map(scores.get, map(itemgetter(*positions), rows), repeat(default)))


#: A lookup probes a memoized block's index (:class:`Probe`) when the block
#: has at least this many rows per score-relation entry, and scans the rows
#: otherwise (``docs/PERFORMANCE.md``, "Scored rows only").
PROBE_ROWS_PER_ENTRY = 4


def _hits(
    rows: list[Row], positions: Sequence[int], table: dict, probe: Probe | None
) -> dict[int, ScorePair]:
    """Row position → the pair *table* holds for that row's key at
    *positions*, for the rows it covers: found through *probe*'s index when
    *table* is small next to *rows*, else by mapping every row."""
    if probe is not None and len(table) * PROBE_ROWS_PER_ENTRY <= len(rows):
        return probe.locate(tuple(positions), table)
    column = _pairs_of_rows(rows, positions, table)
    # A pair is a 2-tuple, never falsy: both keep exactly the hits.
    return dict(zip(compress(range(len(rows)), column), filter(None, column)))


def _fold_lookups(
    rows: list[Row], lookups, key, aggregate: AggregateFunction, probe: Probe | None = None
) -> tuple[dict[tuple, ScorePair], list[ScorePair], list[int], int]:
    """Per row, fold the pairs of several score relations through ``F``.

    *lookups* lists ``(key positions, score relation)`` in combination
    order; non-default results are keyed by ``key(row)``.  Only the rows
    some relation covers are visited, and a row one relation covers takes
    that pair as is: a score relation holds only non-default pairs, and
    ``F`` folds a lone non-default pair to itself.  *probe* (a memo hit's)
    lets a small relation find its rows without a pass over all of them.
    Returns the scores (in row order), each row's pair (aligned with
    *rows*), the positions of the rows holding a non-default pair
    (ascending) and how many pairs went through ``F``.
    """
    hits = [_hits(rows, positions, table, probe) for positions, table in lookups if table]
    merged: dict[int, ScorePair] = {}
    for found in hits:
        merged.update(found)
    combined = 0
    if len(hits) > 1:
        shared: set[int] = set()
        for number, found in enumerate(hits):
            for other in hits[number + 1 :]:
                shared |= found.keys() & other.keys()
        fold = aggregate.fold
        for index in shared:
            pair, count = fold(None, [found[index] for found in hits if index in found])
            combined += count
            if pair is None:
                del merged[index]
            else:
                merged[index] = pair
    covered = sorted(merged)
    found_pairs = list(map(merged.__getitem__, covered))
    scores = dict(zip(map(key, map(rows.__getitem__, covered)), found_pairs))
    pairs = [IDENTITY] * len(rows)
    for index, pair in zip(covered, found_pairs):
        pairs[index] = pair
    return scores, pairs, covered, combined


def combine_setop(
    kind: str,
    left: Intermediate,
    right: Intermediate,
    rows: list[Row],
    aggregate: AggregateFunction = F_S,
) -> Intermediate:
    """A set operation's score relation, keyed by the full (deduplicated) row.

    Inputs are first collapsed to per-row pairs (duplicates within one input
    merge through F, matching the reference algebra); then union combines
    pairs of common rows, intersection combines both sides, difference keeps
    the left pair.
    """
    left_pairs = _collapse_by_row(left, aggregate)
    right_pairs = _collapse_by_row(right, aggregate)
    combine = aggregate.combine
    scores: dict[tuple, ScorePair] = {}
    for row in rows:
        if kind == "difference":
            pair = left_pairs.get(row, IDENTITY)
        elif kind == "intersect":
            pair = combine(left_pairs.get(row, IDENTITY), right_pairs.get(row, IDENTITY))
        else:  # union
            a = left_pairs.get(row)
            b = right_pairs.get(row)
            if a is None:
                pair = b if b is not None else IDENTITY
            elif b is None:
                pair = a
            else:
                pair = combine(a, b)
        if not pair.is_default:
            scores[row] = pair
    key_attrs = [c.qualified_name for c in left.schema.columns]
    return Intermediate(left.schema, rows, key_attrs, scores)


def _collapse_by_row(
    inter: Intermediate, aggregate: AggregateFunction
) -> dict[Row, ScorePair]:
    out: dict[Row, ScorePair] = {}
    key = inter.key_fn()
    scores = inter.scores
    combine = aggregate.combine
    for row in inter.rows:
        pair = scores.get(key(row), IDENTITY)
        if row in out:
            out[row] = combine(out[row], pair)
        else:
            out[row] = pair
    return out


def apply_score_select(inter: Intermediate, condition) -> Intermediate:
    """A selection referencing ``score``/``conf``: evaluated with pair lookups."""
    fn = condition.compile(inter.schema, with_score=True)
    key = inter.key_fn()
    scores = inter.scores
    kept = []
    for row in inter.rows:
        pair = scores.get(key(row), IDENTITY)
        if fn(row + (pair.score, pair.conf)):
            kept.append(row)
    return filter_rows(inter, kept)


def apply_topk(inter: Intermediate, k: int, by: str) -> Intermediate:
    """Top-k over an intermediate, via the shared deterministic ordering.

    With its covered rows recorded, only those are ranked when at least k
    of them rank strictly above the default pair ⟨⊥, 0⟩ every other row
    holds: then no other row reaches the cut, and the covered rows keep
    their relative order, so the cut and its order are the full relation's.
    """
    from ..filtering.topk import above_default, topk as topk_filter

    relation = None
    covered = inter.covered
    if covered is not None:
        pairs = list(map(inter.pairs.__getitem__, covered))
        if above_default(pairs, k, by):
            relation = PRelation(inter.schema, list(map(inter.rows.__getitem__, covered)), pairs)
    if relation is None:
        relation = inter.to_prelation()
    result = topk_filter(relation, k, by)
    return filter_rows(inter, list(result.rows))


def merge_embedded(
    schema: TableSchema,
    rows: list[Row],
    embedded: Sequence[Intermediate],
    extra_key_attrs: Sequence[str],
    aggregate: AggregateFunction = F_S,
    probe: Probe | None = None,
) -> Intermediate:
    """Score relation of a natively-executed block with embedded intermediates.

    Used by GBU after forcing a deferred subtree: each embedded
    intermediate's key attributes are resolved against the block's output
    schema and its pairs are combined per result row.  ``extra_key_attrs``
    are the primary keys contributed by base-relation leaves of the block.
    *probe* finds rows by key when the block memo answered the block.
    """
    key_attrs: list[str] = []
    seen_positions: set[int] = set()
    for source in list(extra_key_attrs) + [
        attr for inter in embedded for attr in inter.key_attrs
    ]:
        position = schema.index_of(source)
        if position not in seen_positions:
            seen_positions.add(position)
            key_attrs.append(schema.columns[position].qualified_name)
    if not key_attrs:
        key_attrs = [c.qualified_name for c in schema.columns]

    lookups = [
        ([schema.index_of(a) for a in inter.key_attrs], inter.scores) for inter in embedded
    ]
    key = row_getter([schema.index_of(a) for a in key_attrs])
    scores, pairs, covered, _ = _fold_lookups(rows, lookups, key, aggregate, probe)
    return Intermediate(schema, rows, key_attrs, scores, pairs=pairs, covered=covered)
