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

    __slots__ = ("schema", "rows", "key_attrs", "scores", "source", "pairs")

    def __init__(
        self,
        schema: TableSchema,
        rows: list[Row] | None,
        key_attrs: Sequence[str],
        scores: dict[tuple, ScorePair] | None = None,
        source: object | None = None,
        pairs: list[ScorePair] | None = None,
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
    scores, pairs, combined = _fold_lookups(
        rows,
        [(left_positions, left.scores), (right_positions, right.scores)],
        row_getter(left_positions + right_positions),
        aggregate,
    )
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("aggregate.combine", combined)
    return Intermediate(schema, rows, key_attrs, scores, pairs=pairs)


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


def _fold_lookups(
    rows: list[Row], lookups, key, aggregate: AggregateFunction
) -> tuple[dict[tuple, ScorePair], list[ScorePair], int]:
    """Per row, fold the pairs of several score relations through ``F``.

    *lookups* lists ``(key positions, score relation)`` in combination
    order; non-default results are keyed by ``key(row)``.  Only the rows
    some relation covers are visited, in row order, and a row one relation
    covers takes that pair as is: a score relation holds only non-default
    pairs, and ``F`` folds a lone non-default pair to itself.  Returns the
    scores, each row's pair (aligned with *rows*) and how many pairs went
    through ``F``.
    """
    columns = [_pairs_of_rows(rows, positions, table) for positions, table in lookups if table]
    everywhere = range(len(rows))
    # A pair is a 2-tuple, never falsy: compress keeps exactly the hits.
    covered = sorted(set().union(*(compress(everywhere, column) for column in columns)))
    fold = aggregate.fold
    scores: dict[tuple, ScorePair] = {}
    pairs = [IDENTITY] * len(rows)
    combined = 0
    for index in covered:
        found = [hit for column in columns if (hit := column[index]) is not None]
        if len(found) == 1:
            pair = found[0]
        else:
            pair, count = fold(None, found)
            combined += count
            if pair is None:
                continue
        scores[key(rows[index])] = pairs[index] = pair
    return scores, pairs, combined


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
    """Top-k over an intermediate, via the shared deterministic ordering."""
    from ..filtering import topk as topk_filter

    result = topk_filter(inter.to_prelation(), k, by)
    return filter_rows(inter, list(result.rows))


def merge_embedded(
    schema: TableSchema,
    rows: list[Row],
    embedded: Sequence[Intermediate],
    extra_key_attrs: Sequence[str],
    aggregate: AggregateFunction = F_S,
) -> Intermediate:
    """Score relation of a natively-executed block with embedded intermediates.

    Used by GBU after forcing a deferred subtree: each embedded
    intermediate's key attributes are resolved against the block's output
    schema and its pairs are combined per result row.  ``extra_key_attrs``
    are the primary keys contributed by base-relation leaves of the block.
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
    scores, pairs, _ = _fold_lookups(rows, lookups, key, aggregate)
    return Intermediate(schema, rows, key_attrs, scores, pairs=pairs)
