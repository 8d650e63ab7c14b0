"""Fused batch preference scoring — the physical layer over ``core.prefgroup``.

The execution strategies evaluate *runs* of prefer operators: FtP folds the
whole region's preference list over one delegated result, BU/GBU walk chains
of adjacent ``Prefer`` nodes.  This module applies such a run as **one**
fused pass (column tables + dispatch index + distinct-value memoization +
fused combining, see :mod:`repro.core.prefgroup`) instead of |λ| separate
passes.

Batch scoring is on by default and gated by an ambient flag
(``with use_batch_scoring(False): ...``) — the unfused sequential fold stays
available as the reference path and as the baseline the
``bench_batch_scoring`` benchmark and the CI perf-smoke gate compare
against.

Every fused application reports a ``prefer.batch`` span with the group's
shape (``columns``, ``indexed``, ``residual``: preferences per structure)
and the pass's counters (``probes``, ``dispatch_hits``, ``memo_hits``, ``fused_combines``,
``residual_checks``, ``rows_in``, ``matches``) so EXPLAIN ANALYZE shows
where the pass saved work.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Sequence

from ..core.aggregates import AggregateFunction
from ..core.preference import Preference
from ..core.prefgroup import CompiledGroup, PreferenceGroup
from ..core.prelation import PRelation
from ..core.scorepair import ScorePair
from ..engine.schema import TableSchema
from ..engine.table import Row, row_getter
from ..obs import current_tracer
from .scorerel import Intermediate

#: Ambient switch: fused batch scoring is the default execution mode.
_BATCH_SCORING: ContextVar[bool] = ContextVar("repro-batch-scoring", default=True)


def batch_scoring_enabled() -> bool:
    """Whether strategies should evaluate preference runs as fused groups."""
    return _BATCH_SCORING.get()


@contextmanager
def use_batch_scoring(enabled: bool):
    """Ambiently enable/disable fused batch scoring for the dynamic extent."""
    token = _BATCH_SCORING.set(bool(enabled))
    try:
        yield
    finally:
        _BATCH_SCORING.reset(token)


def _report_batch(compiled: CompiledGroup, label: str) -> None:
    """Attach the pass's counters to a ``prefer.batch`` span (no-op untraced)."""
    tracer = current_tracer()
    if not tracer.enabled:
        return
    with tracer.span("prefer.batch", label=label) as span:
        span.set("preferences", len(compiled.group))
        span.set("columns", compiled.column_count)
        span.set("indexed", compiled.indexed_count)
        span.set("residual", compiled.residual_count)
        span.set("memo", compiled.memo_enabled)
        for name, value in compiled.stats.as_dict().items():
            span.add(name, value)
        # A match is exactly one combiner application of the sequential
        # fold, so the standard counter stays comparable across modes.
        span.add("aggregate.combine", compiled.stats.matches)


def apply_prefer_group(
    inter: Intermediate,
    preferences: Sequence[Preference],
    aggregate: AggregateFunction,
) -> Intermediate:
    """Fused equivalent of folding ``scorerel.apply_prefer`` per preference.

    One pass over ``inter.rows``; the score relation is copied once for the
    whole group.  Bit-identical to the sequential fold (see
    :meth:`CompiledGroup.score_rows`).
    """
    compiled = PreferenceGroup(preferences, aggregate).compile(inter.schema)
    scores = compiled.score_rows(inter.rows, inter.key_fn(), inter.scores)
    _report_batch(compiled, f"|λ|={len(preferences)}")
    return Intermediate(inter.schema, inter.rows, inter.key_attrs, scores, inter.source)


def prefer_group(
    relation: PRelation,
    preferences: Sequence[Preference],
    aggregate: AggregateFunction,
) -> PRelation:
    """Fused equivalent of folding ``core.prefer.prefer`` per preference.

    The PRelation form used by FtP and the plug-in skeleton: rows keep their
    positions, every row's pair is folded through all matching preferences
    in one pass.
    """
    compiled = PreferenceGroup(preferences, aggregate).compile(relation.schema)
    pairs = compiled.score_pairs(relation.rows, relation.pairs)
    _report_batch(compiled, f"|λ|={len(preferences)}")
    return PRelation(relation.schema, list(relation.rows), pairs)


def group_scores_from_rows(
    schema: TableSchema,
    rows: Sequence[Row],
    key_attrs: Sequence[str],
    preferences: Sequence[Preference],
    aggregate: AggregateFunction,
    base: "dict[tuple, ScorePair] | None" = None,
) -> "dict[tuple, ScorePair]":
    """Fused score-relation derivation for a natively-executed block (GBU).

    *schema* is the block result's schema as delivered (possibly permuted);
    keys are resolved by name.  Returns a fresh dict merging into *base*
    without mutating it.
    """
    compiled = PreferenceGroup(preferences, aggregate).compile(schema)
    key_fn = row_getter([schema.index_of(a) for a in key_attrs])
    scores = compiled.score_rows(rows, key_fn, base)
    _report_batch(compiled, f"|λ|={len(preferences)}")
    return scores
