"""Property-based verification of the paper's algebraic Properties 4.1–4.4.

Each property is checked semantically: both sides of the equation are
evaluated with the reference evaluator over the example movie database, with
hypothesis generating the preferences' conditional parts, scores and
confidences.  These are exactly the rewrites the optimizer relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import build_movie_db
from repro.core.preference import Preference
from repro.core.scoring import ConstantScore, recency_score
from repro.engine.expressions import TRUE, cmp, eq
from repro.pexec.reference import evaluate_reference
from repro.plan.builder import natural_join_condition
from repro.plan.nodes import Join, Prefer, Relation, Select

DB = build_movie_db()

YEARS = st.integers(min_value=2000, max_value=2012)
DURATIONS = st.integers(min_value=90, max_value=140)
SCORES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
CONFS = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
OPS = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])


@st.composite
def preferences(draw):
    op = draw(OPS)
    year = draw(YEARS)
    kind = draw(st.sampled_from(["const", "recency"]))
    scoring = (
        ConstantScore(draw(SCORES)) if kind == "const" else recency_score("year", 2011)
    )
    return Preference(
        "p", "MOVIES", cmp("MOVIES.year", op, year), scoring, draw(CONFS)
    )


@st.composite
def duration_preferences(draw):
    op = draw(OPS)
    duration = draw(DURATIONS)
    return Preference(
        "q", "MOVIES", cmp("MOVIES.duration", op, duration), draw(SCORES), draw(CONFS)
    )


class TestProperty41:
    """σ_φ λ_p(R) = λ_p σ_φ(R) for φ not touching score/conf."""

    @settings(max_examples=60, deadline=None)
    @given(preferences(), YEARS, OPS)
    def test_select_prefer_commute(self, p, year, op):
        condition = cmp("year", op, year)
        left = evaluate_reference(
            Select(Prefer(Relation("MOVIES"), [p]), condition), DB.catalog
        )
        right = evaluate_reference(
            Prefer(Select(Relation("MOVIES"), condition), [p]), DB.catalog
        )
        assert left.same_contents(right)


class TestProperty42:
    """σ_φ' λ_p(R) = σ_φ' λ_p'(R) with p' = (σ_{φ∧φ'}, S, C)."""

    @settings(max_examples=60, deadline=None)
    @given(preferences(), DURATIONS)
    def test_condition_folding(self, p, duration):
        outer = cmp("duration", ">=", duration)
        narrowed = Preference(
            p.name, p.relations, p.condition & outer, p.scoring, p.confidence
        )
        left = evaluate_reference(
            Select(Prefer(Relation("MOVIES"), [p]), outer), DB.catalog
        )
        right = evaluate_reference(
            Select(Prefer(Relation("MOVIES"), [narrowed]), outer), DB.catalog
        )
        assert left.same_contents(right)


class TestProperty43:
    """λ_p1(λ_p2(R)) = λ_p2(λ_p1(R)) — prefer is commutative."""

    @settings(max_examples=60, deadline=None)
    @given(preferences(), duration_preferences())
    def test_prefer_commutes(self, p1, p2):
        base = Relation("MOVIES")
        left = evaluate_reference(Prefer(base, [p1, p2]), DB.catalog)
        right = evaluate_reference(Prefer(base, [p2, p1]), DB.catalog)
        assert left.same_contents(right)

    @settings(max_examples=30, deadline=None)
    @given(preferences(), duration_preferences(), preferences())
    def test_three_prefers_any_order(self, p1, p2, p3):
        base = Relation("MOVIES")
        orders = [
            (p1, p2, p3),
            (p3, p2, p1),
            (p2, p1, p3),
        ]
        results = []
        for order in orders:
            results.append(evaluate_reference(Prefer(base, order), DB.catalog))
        assert results[0].same_contents(results[1])
        assert results[0].same_contents(results[2])


class TestProperty44:
    """λ_p(R_i ⋈ R_j) = λ_p(R_i) ⋈ R_j when p uses only R_i's attributes."""

    JOIN = natural_join_condition(DB.catalog, Relation("MOVIES"), Relation("DIRECTORS"))

    @settings(max_examples=60, deadline=None)
    @given(preferences())
    def test_push_through_join_left(self, p):
        join = Join(Relation("MOVIES"), Relation("DIRECTORS"), self.JOIN)
        above = evaluate_reference(Prefer(join, [p]), DB.catalog)
        pushed = evaluate_reference(
            Join(Prefer(Relation("MOVIES"), [p]), Relation("DIRECTORS"), self.JOIN),
            DB.catalog,
        )
        assert above.same_contents(pushed)

    @settings(max_examples=30, deadline=None)
    @given(SCORES, CONFS)
    def test_push_through_join_right(self, score, conf):
        p = Preference("d", "DIRECTORS", eq("DIRECTORS.d_id", 1), score, conf)
        join = Join(Relation("MOVIES"), Relation("DIRECTORS"), self.JOIN)
        above = evaluate_reference(Prefer(join, [p]), DB.catalog)
        pushed = evaluate_reference(
            Join(Relation("MOVIES"), Prefer(Relation("DIRECTORS"), [p]), self.JOIN),
            DB.catalog,
        )
        assert above.same_contents(pushed)

    @settings(max_examples=30, deadline=None)
    @given(preferences())
    def test_push_through_intersection_left(self, p):
        from repro.plan.nodes import Intersect

        recent = Select(Relation("MOVIES"), cmp("year", ">=", 2005))
        other = Select(Relation("MOVIES"), cmp("duration", "<=", 130))
        above = evaluate_reference(Prefer(Intersect(recent, other), [p]), DB.catalog)
        pushed = evaluate_reference(Intersect(Prefer(recent, [p]), other), DB.catalog)
        assert above.same_contents(pushed)

    @settings(max_examples=30, deadline=None)
    @given(preferences())
    def test_push_through_difference_left(self, p):
        from repro.plan.nodes import Difference

        recent = Select(Relation("MOVIES"), cmp("year", ">=", 2005))
        other = Select(Relation("MOVIES"), cmp("duration", ">", 130))
        above = evaluate_reference(Prefer(Difference(recent, other), [p]), DB.catalog)
        pushed = evaluate_reference(Difference(Prefer(recent, [p]), other), DB.catalog)
        assert above.same_contents(pushed)
