"""Columnar implementations of the hot operators.

Each operator mirrors its reference counterpart in
:mod:`repro.core.algebra` — same iteration order, same NULL handling, same
pair combination through ``F`` — but reads attribute columns instead of
whole rows wherever that saves work:

* ``select`` evaluates the condition as a selection vector
  (:mod:`.vectorized`) and gathers the surviving rows once;
* ``join``/``left_join`` extract hash keys from the cached key columns and
  only touch full rows for emitted matches;
* ``topk`` delegates to :func:`repro.filtering.topk` — the deterministic
  total order is the one thing every mode must share bit-for-bit.

Conditions over the reserved ``score``/``conf`` attributes always use the
compiled row path (they read the pair, not a column).
"""

from __future__ import annotations

from typing import Sequence

from ..core.aggregates import AggregateFunction
from ..engine.expressions import Expr, is_true
from ..engine.joinutil import split_equi_condition
from ..engine.table import Row, row_getter
from ..filtering import topk as topk_prelation
from .column import ColumnarRelation
from .vectorized import selection_vector


def select(relation: ColumnarRelation, condition: Expr) -> ColumnarRelation:
    """``σ_φ(R)`` — vectorized when φ has a kernel, row fallback otherwise."""
    if condition.references_score():
        fn = condition.compile(relation.schema, with_score=True)
        pairs = relation.pairs
        vector = [
            i
            for i, row in enumerate(relation.rows)
            if fn(row + (pairs[i].score, pairs[i].conf))
        ]
        return relation.take(vector)
    vector = selection_vector(condition, relation.schema, relation.store)
    if vector is None:
        fn = condition.compile(relation.schema)
        vector = [i for i, row in enumerate(relation.rows) if fn(row)]
    return relation.take(vector)


def project(relation: ColumnarRelation, attrs: Sequence[str]) -> ColumnarRelation:
    """``π_A(R)`` — bag semantics, pairs survive (as in the reference)."""
    positions = [relation.schema.index_of(a) for a in attrs]
    schema = relation.schema.project(attrs)
    rows = list(map(row_getter(positions), relation.rows))
    return ColumnarRelation.from_rows(schema, rows, list(relation.pairs))


def join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    condition: Expr,
    aggregate: AggregateFunction,
) -> ColumnarRelation:
    """``R ⋈_{φ,F} S`` — hash join over key columns, residual on candidates."""
    return _join(left, right, condition, aggregate, outer=False)


def left_join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    condition: Expr,
    aggregate: AggregateFunction,
) -> ColumnarRelation:
    """``R ⟕_{φ,F} S`` — unmatched left rows survive NULL-padded."""
    return _join(left, right, condition, aggregate, outer=True)


def _join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    condition: Expr,
    aggregate: AggregateFunction,
    outer: bool,
) -> ColumnarRelation:
    schema = left.schema.join(right.schema)
    equi, residual = split_equi_condition(condition, left.schema, right.schema)
    combine = aggregate.combine
    padding = (None,) * len(right.schema.columns) if outer else None
    rows: list[Row] = []
    pairs = []

    left_rows = left.rows
    left_pairs = left.pairs
    right_rows = right.rows
    right_pairs = right.pairs

    if equi:
        left_columns = [left.column(left.schema.index_of(a)) for a, _ in equi]
        right_indices = tuple(right.schema.index_of(b) for _, b in equi)
        buckets = right.store.buckets(right_indices)
        residual_fn = residual.compile(schema) if residual is not None else None
        empty: list[int] = []
        for i in range(len(left_rows)):
            key = tuple(column[i] for column in left_columns)
            matched = False
            if not any(part is None for part in key):
                row = left_rows[i]
                pair = left_pairs[i]
                for j in buckets.get(key, empty):
                    combined_row = row + right_rows[j]
                    if residual_fn is not None and not residual_fn(combined_row):
                        continue
                    matched = True
                    rows.append(combined_row)
                    pairs.append(combine(pair, right_pairs[j]))
            if outer and not matched:
                rows.append(left_rows[i] + padding)
                pairs.append(left_pairs[i])
    else:
        fn = None if is_true(condition) else condition.compile(schema)
        for i in range(len(left_rows)):
            row = left_rows[i]
            pair = left_pairs[i]
            matched = False
            for j in range(len(right_rows)):
                combined_row = row + right_rows[j]
                if fn is not None and not fn(combined_row):
                    continue
                matched = True
                rows.append(combined_row)
                pairs.append(combine(pair, right_pairs[j]))
            if outer and not matched:
                rows.append(row + padding)
                pairs.append(pair)

    return ColumnarRelation.from_rows(schema, rows, pairs)


def topk(relation: ColumnarRelation, k: int, by: str) -> ColumnarRelation:
    """``top(k, score|conf)`` — the shared deterministic total-order cut."""
    result = topk_prelation(relation.to_prelation(), k, by)
    return ColumnarRelation.from_rows(result.schema, result.rows, result.pairs)
