"""Reusable differential-conformance harness.

Every optimization this repository layers onto the reference evaluator —
fused batch scoring, the columnar executor, the result cache — carries the
same proof obligation: run the query both ways and show the results are
identical.  This module is that obligation, written once:

* :func:`exact_multiset` — the strict comparison: a ``Counter`` of raw
  ``(row, score, conf)`` triples, no rounding.  Use it when the two modes
  are supposed to perform bit-identical float operations (the fused
  pass vs the per-preference fold, columnar vs reference).
* :func:`canonical_multiset` — the cross-strategy comparison: scores and
  confidences rounded to ``precision`` digits (the same canonicalization
  :meth:`PRelation.as_multiset` applies), for modes that combine pairs in a
  different but law-equivalent order.
* :func:`assert_identical` — assert baseline == candidate, with a
  row-level diff report on failure instead of two opaque Counters.

Callables may return a :class:`~repro.pexec.engine.QueryResult` or a bare
:class:`~repro.core.prelation.PRelation`; :func:`result_relation` unwraps
either.
"""

from __future__ import annotations

from collections import Counter

from repro.core.prelation import PRelation
from repro.plan.nodes import Prefer


def prefer_runs_normal(plan) -> bool:
    """True when no prefer run sits directly on a run with the same
    aggregate: the normal form SQL compile, the plan builder and every
    optimizer rule keep (Property 4.3 makes such a pair one run)."""
    return not any(
        isinstance(node, Prefer)
        and isinstance(node.child, Prefer)
        and node.child.aggregate == node.aggregate
        for node in plan.walk()
    )


def optimize_keeping_runs_normal(plan, catalog):
    """*plan* through each optimizer rule in pipeline order, asserting that
    it and every rule's output keep prefer runs in normal form."""
    from repro.optimizer import left_deepen, match_native_join_order
    from repro.optimizer.rules import (
        push_prefers,
        push_projections,
        push_selections,
        reorder_prefers,
    )

    assert prefer_runs_normal(plan)
    rules = (
        push_selections,
        push_projections,
        push_prefers,
        reorder_prefers,
        match_native_join_order,
        left_deepen,
    )
    for rule in rules:
        plan = rule(plan, catalog)
        assert prefer_runs_normal(plan), rule.__name__
    return plan


def result_relation(obj) -> PRelation:
    """The p-relation inside *obj*: a QueryResult or a PRelation itself."""
    relation = getattr(obj, "relation", obj)
    if not isinstance(relation, PRelation):
        raise TypeError(f"cannot extract a PRelation from {obj!r}")
    return relation


def exact_multiset(obj) -> Counter:
    """Multiset of raw ``(row, score, conf)`` triples — no rounding."""
    relation = result_relation(obj)
    return Counter(
        (row, pair.score, pair.conf)
        for row, pair in zip(relation.rows, relation.pairs)
    )


def canonical_multiset(obj, precision: int = 9) -> Counter:
    """Multiset with scores/confidences rounded to *precision* digits."""
    relation = result_relation(obj)
    return Counter(
        (
            row,
            None if pair.score is None else round(pair.score, precision),
            round(pair.conf, precision),
        )
        for row, pair in zip(relation.rows, relation.pairs)
    )


def diff_report(
    baseline: Counter,
    candidate: Counter,
    labels: tuple[str, str] = ("baseline", "candidate"),
    limit: int = 8,
) -> str:
    """Human-readable difference between two result multisets.

    Lists triples present in one side but not the other (with
    multiplicities), truncated to *limit* entries per side.
    """
    base_label, cand_label = labels
    missing = baseline - candidate  # in baseline, absent from candidate
    extra = candidate - baseline

    def _render(counter: Counter) -> list[str]:
        lines = []
        for triple, count in sorted(
            counter.items(), key=lambda item: repr(item[0])
        )[:limit]:
            row, score, conf = triple
            suffix = f" ×{count}" if count > 1 else ""
            lines.append(f"    {row!r} ⟨{score}, {conf}⟩{suffix}")
        hidden = len(counter) - min(len(counter), limit)
        if hidden > 0:
            lines.append(f"    ... and {hidden} more")
        return lines

    parts = [
        f"{base_label}: {sum(baseline.values())} rows, "
        f"{cand_label}: {sum(candidate.values())} rows"
    ]
    if missing:
        parts.append(f"  only in {base_label} ({sum(missing.values())}):")
        parts.extend(_render(missing))
    if extra:
        parts.append(f"  only in {cand_label} ({sum(extra.values())}):")
        parts.extend(_render(extra))
    if not missing and not extra:
        parts.append("  (multisets agree — diff requested on equal results)")
    return "\n".join(parts)


def assert_identical(
    baseline,
    candidate,
    *,
    exact: bool = True,
    precision: int = 9,
    context: str = "",
    labels: tuple[str, str] = ("baseline", "candidate"),
) -> None:
    """Assert two results carry the same multiset of scored rows.

    *exact* compares raw floats (byte identity); ``exact=False`` rounds to
    *precision* first (cross-strategy conformance).  On failure the
    assertion message carries a row-level diff, not two opaque Counters.
    """
    if exact:
        base = exact_multiset(baseline)
        cand = exact_multiset(candidate)
    else:
        base = canonical_multiset(baseline, precision)
        cand = canonical_multiset(candidate, precision)
    if base != cand:
        kind = "exact" if exact else f"canonical(precision={precision})"
        where = f" on {context}" if context else ""
        raise AssertionError(
            f"{labels[1]} diverged from {labels[0]} ({kind}){where}\n"
            + diff_report(base, cand, labels)
        )
