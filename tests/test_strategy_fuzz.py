"""Randomized plan fuzzing: every strategy must agree with the oracle.

Hypothesis builds random extended query plans over the example movie
database — random join subsets, selections, prefer runs over random
relations (some with an ``F_MAX`` override, so runs split at an aggregate
change and across join sides), optional filtering suffixes — and checks
that all physical strategies return exactly the reference evaluator's
p-relation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conformance import optimize_keeping_runs_normal, prefer_runs_normal
from tests.conftest import build_movie_db, examples

from repro.core.aggregates import F_MAX
from repro.core.preference import Preference
from repro.core.scoring import ConstantScore, around_score, rating_score, recency_score
from repro.engine.expressions import TRUE, cmp, eq
from repro.pexec.engine import ExecutionEngine
from repro.plan.builder import natural_join_condition
from repro.plan.nodes import Join, LeftJoin, Prefer, Relation, Select, TopK

DB = build_movie_db()
ENGINE = ExecutionEngine(DB)
PHYSICAL = ("gbu", "bu", "ftp", "plugin-rma", "plugin-shared")

#: Join chain (each next relation naturally joins the accumulated prefix).
CHAIN = ("MOVIES", "GENRES", "DIRECTORS", "RATINGS")

CONDITIONS = {
    "MOVIES": [
        cmp("MOVIES.year", ">=", 2005),
        cmp("MOVIES.duration", "<", 125),
        eq("MOVIES.m_id", 3),
        TRUE,
    ],
    "GENRES": [eq("GENRES.genre", "Comedy"), eq("GENRES.genre", "Drama"), TRUE],
    "DIRECTORS": [eq("DIRECTORS.d_id", 1), TRUE],
    "RATINGS": [cmp("RATINGS.votes", ">", 100), cmp("RATINGS.rating", ">=", 7.0), TRUE],
}

SCORINGS = {
    "MOVIES": [recency_score("MOVIES.year", 2011), around_score("MOVIES.duration", 120)],
    "GENRES": [ConstantScore(0.8), ConstantScore(0.3)],
    "DIRECTORS": [ConstantScore(0.9)],
    "RATINGS": [rating_score("RATINGS.rating"), ConstantScore(0.6)],
}


@st.composite
def preferences(draw, relation: str):
    condition = draw(st.sampled_from(CONDITIONS[relation]))
    scoring = draw(st.sampled_from(SCORINGS[relation]))
    confidence = draw(
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False).map(
            lambda v: round(v, 3)
        )
    )
    return Preference(f"fz[{relation}]", relation, condition, scoring, confidence)


@st.composite
def plans(draw):
    num_relations = draw(st.integers(min_value=1, max_value=4))
    names = CHAIN[:num_relations]
    plan = Relation(names[0])
    for name in names[1:]:
        right = Relation(name)
        condition = natural_join_condition(DB.catalog, plan, right)
        if draw(st.booleans()):
            plan = Join(plan, right, condition)
        else:
            plan = LeftJoin(plan, right, condition)
    # Random selection somewhere below the prefers.
    if draw(st.booleans()):
        relation = draw(st.sampled_from(names))
        plan = Select(plan, draw(st.sampled_from(CONDITIONS[relation])))
    # 0..6 preferences over random relations of the query, in runs split
    # where an F_MAX override starts or ends.
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        relation = draw(st.sampled_from(names))
        aggregate = draw(st.sampled_from([None, None, F_MAX]))
        plan = Prefer.over(plan, [draw(preferences(relation))], aggregate)
    # Optional filtering suffix.
    suffix = draw(st.sampled_from(["none", "topk", "conf", "score-topk"]))
    if suffix in ("conf", "score-topk"):
        plan = Select(plan, cmp("conf", ">=", draw(st.sampled_from([0.2, 0.5, 0.9]))))
    if suffix in ("topk", "score-topk"):
        plan = TopK(plan, draw(st.integers(min_value=1, max_value=6)), draw(st.sampled_from(["score", "conf"])))
    return plan


def _divergence_trace(plan, strategy) -> str:
    """Re-run the divergent strategy under a tracer for the failure report."""
    from repro import Tracer
    from repro.obs import render_trace

    tracer = Tracer()
    try:
        ENGINE.run(plan, strategy, tracer=tracer)
    except Exception as err:  # tracing must never mask the divergence itself
        return f"(re-run under tracer failed: {err})"
    return render_trace(tracer.root)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plans())
def test_all_strategies_match_reference(plan):
    """Fuzzing companion to the fixed seed corpus in test_strategy_conformance."""
    reference = ENGINE.run(plan, "reference")
    for strategy in PHYSICAL:
        result = ENGINE.run(plan, strategy)
        assert result.relation.same_contents(reference.relation), (
            f"{strategy} diverged on plan {plan!r}\n"
            f"trace of divergent run:\n{_divergence_trace(plan, strategy)}"
        )


@settings(max_examples=examples(40), deadline=None)
@given(plans())
def test_optimizer_preserves_random_plans(plan):
    """The full optimizer pipeline is semantics-preserving on random plans,
    and every rule keeps prefer runs in normal form."""
    from repro.optimizer import optimize
    from repro.pexec.conform import conform
    from repro.pexec.reference import evaluate_reference
    from repro.plan.analysis import qualify_preferences

    assert prefer_runs_normal(plan)
    qualified = qualify_preferences(plan, DB.catalog)
    optimized = optimize_keeping_runs_normal(qualified, DB.catalog)
    assert optimized == optimize(qualified, DB.catalog)
    before = evaluate_reference(qualified, DB.catalog)
    after = conform(
        evaluate_reference(optimized, DB.catalog), qualified.schema(DB.catalog)
    )
    assert before.same_contents(after)
