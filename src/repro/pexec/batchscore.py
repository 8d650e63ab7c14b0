"""Fused batch preference scoring — the physical layer over ``core.prefgroup``.

The execution strategies evaluate *runs* of preferences: BU and GBU one
``Prefer`` node's run (its preferences in fold order), FtP the whole
region's preference list over one delegated result.  This module applies
such a run as **one** fused pass (column tables + dispatch index + one
computation per distinct match key + fused combining, see
:mod:`repro.core.prefgroup`) instead of |λ| separate passes.

It is the only way a physical strategy turns rows into score pairs, for a
run of one preference as for a longer one; the ``reference`` strategy's
per-preference fold (:func:`repro.core.prefer.prefer`) is the oracle it is
checked against.

Every fused application reports a ``prefer.batch`` span with the group's
shape (``columns``, ``indexed``, ``residual``: preferences per structure)
and the pass's counters (``rows_in``, ``keys``, ``probes``, ``dispatch_hits``,
``residual_checks``, ``fused_combines``, ``matches``) so EXPLAIN ANALYZE
shows where the pass saved work.
"""

from __future__ import annotations

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


def _report_batch(compiled: CompiledGroup, label: str) -> None:
    """Attach the pass's counters to a ``prefer.batch`` span (no-op untraced)."""
    tracer = current_tracer()
    if not tracer.enabled:
        return
    with tracer.span("prefer.batch", label=label) as span:
        span.attrs.update(
            preferences=len(compiled.group),
            columns=compiled.column_count,
            indexed=compiled.indexed_count,
            residual=compiled.residual_count,
        )
        counters = compiled.stats.as_dict()
        # A match is exactly one combiner application of the per-preference
        # fold, so the standard counter stays comparable with `reference`.
        counters["aggregate.combine"] = compiled.stats.matches
        span.counters.update(counters)  # a fresh span: no counter to add to


def apply_prefer_group(
    inter: Intermediate,
    preferences: Sequence[Preference],
    aggregate: AggregateFunction,
) -> Intermediate:
    """The prefer run over an intermediate (§VI, prefer UDF).

    One pass over ``inter.rows``: qualifying tuples already in the score
    relation have their pairs updated, the others are inserted with their
    fresh pair.  The score relation is copied once for the whole group;
    the result is bit-identical to folding the preferences one at a time
    (see :meth:`CompiledGroup.score_rows`).
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
    compiled: CompiledGroup,
    base: "dict[tuple, ScorePair] | None" = None,
) -> "dict[tuple, ScorePair]":
    """Score-relation entries for rows a native query delivered (GBU, BU).

    *schema* is the rows' schema as delivered (possibly permuted), the one
    *compiled* was compiled against (:meth:`Prefer.compiled
    <repro.plan.nodes.Prefer.compiled>`); keys are resolved by name.  The
    rows may be pre-qualified by ``σ_φ`` or the whole block: every row is
    matched against the group either way.  Returns a fresh dict merging
    into *base* without mutating it.
    """
    positions = [schema.index_of(a) for a in key_attrs]
    # A key that is the whole row in order: each row is its own key.
    key_fn = None if positions == list(range(len(schema.columns))) else row_getter(positions)
    scores = compiled.score_rows(rows, key_fn, base)
    _report_batch(compiled, f"|λ|={len(compiled.group)}")
    return scores
