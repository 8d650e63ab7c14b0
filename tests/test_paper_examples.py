"""The paper's running examples (Sections III–VI), end to end.

One test per numbered example, asserting the behaviour the text describes —
this file is the guided tour of the reproduction.
"""

import pytest

from repro import (
    Database,
    ExecutionEngine,
    F_MAX,
    F_S,
    PRelation,
    Preference,
    ScorePair,
    around_score,
    cmp,
    eq,
    prefer,
    rating_score,
    recency_score,
    scan,
    weighted,
)
from repro.core.scorepair import IDENTITY
from repro.query import Session


class TestExample1AtomicPreferences:
    """Alice rated Million Dollar Baby 8/10 and Gran Torino 3/10."""

    def test_p1_p2(self, movie_db):
        p1 = Preference.atomic("MOVIES", "m_id", 3, 0.8)
        p2 = Preference.atomic("MOVIES", "m_id", 1, 0.3)
        relation = PRelation.from_table(movie_db.table("MOVIES"))
        out = prefer(prefer(relation, p1), p2)
        by_id = {row[0]: pair for row, pair in out}
        assert by_id[3] == ScorePair(0.8, 1.0)   # explicitly provided: conf 1
        assert by_id[1] == ScorePair(0.3, 1.0)
        assert by_id[2] == IDENTITY               # unaffected tuples keep ⟨⊥,0⟩


class TestExample2GenericPreference:
    """p3[GENRES] = (σ_{genre='Comedy'}, 1, 0.8): all comedies get max score."""

    def test_p3(self, movie_db):
        p3 = Preference("p3", "GENRES", eq("genre", "Comedy"), 1.0, 0.8)
        out = prefer(PRelation.from_table(movie_db.table("GENRES")), p3)
        comedies = [pair for row, pair in out if row[1] == "Comedy"]
        others = [pair for row, pair in out if row[1] != "Comedy"]
        assert all(p == ScorePair(1.0, 0.8) for p in comedies)
        assert all(p == IDENTITY for p in others)


class TestExample3ElaboratePreferences:
    def test_p4_rating_with_votes_condition(self, movie_db):
        """p4[RATINGS] = (σ_{votes>50}, S_r(rating), 0.8)."""
        p4 = Preference("p4", "RATINGS", cmp("votes", ">", 50), rating_score("rating"), 0.8)
        out = prefer(PRelation.from_table(movie_db.table("RATINGS")), p4)
        by_id = {row[0]: pair for row, pair in out}
        assert by_id[1].score == pytest.approx(0.81)  # 8.1 → 0.81
        assert by_id[2] == IDENTITY                   # only 40 votes
        assert by_id[5] == IDENTITY                   # only 30 votes

    def test_p5_multi_attribute(self, movie_db):
        """p5 = (0.5·S_m(year,2011) + 0.5·S_d(duration,120), 0.9)."""
        scoring = weighted(
            [(0.5, recency_score("year", 2011)), (0.5, around_score("duration", 120))]
        )
        from repro.engine.expressions import TRUE

        p5 = Preference("p5", "MOVIES", TRUE, scoring, 0.9)
        out = prefer(PRelation.from_table(movie_db.table("MOVIES")), p5)
        gran = next(pair for row, pair in out if row[0] == 1)
        expected = 0.5 * (2008 / 2011) + 0.5 * (1 - 4 / 120)
        assert gran.score == pytest.approx(expected)
        assert gran.conf == pytest.approx(0.9)

    def test_p6_multi_relational(self, movie_db):
        """p6[MOVIES×GENRES] = (σ_{genre='Action'}, S_m(year,2011), 0.8)."""
        p6 = Preference(
            "p6", ("MOVIES", "GENRES"), eq("genre", "Drama"), recency_score("year", 2011), 0.8
        )
        plan = scan("MOVIES").natural_join(scan("GENRES"), movie_db.catalog).prefer(p6).build()
        result = ExecutionEngine(movie_db).run(plan, "gbu").relation
        dramas = [(row, pair) for row, pair in result if "Drama" in row]
        assert dramas
        assert all(pair.conf == pytest.approx(0.8) for _, pair in dramas)

    def test_p7_membership(self, movie_db):
        """p7[MOVIES×AWARDS] = (σ_true, 1, 0.9): awarded movies preferred."""
        from repro.engine.expressions import Attr, Comparison

        p7 = Preference.membership(("MOVIES", "AWARDS"), 1.0, 0.9, name="p7")
        plan = (
            scan("MOVIES")
            .join(scan("AWARDS"), on=Comparison("=", Attr("MOVIES.m_id"), Attr("AWARDS.m_id")))
            .prefer(p7)
            .build()
        )
        result = ExecutionEngine(movie_db).run(plan, "gbu").relation
        assert all(pair == ScorePair(1.0, 0.9) for _, pair in result)


class TestExample4And5Aggregates:
    def test_f_s_weights_by_confidence(self):
        """F_S: scores with lower confidence contribute less."""
        confident = ScorePair(1.0, 0.9)
        doubtful = ScorePair(0.0, 0.1)
        out = F_S.combine(confident, doubtful)
        assert out.score == pytest.approx(0.9)
        assert out.conf == pytest.approx(1.0)  # total credibility is the sum

    def test_f_max_takes_most_confident(self):
        out = F_MAX.combine(ScorePair(0.2, 0.9), ScorePair(1.0, 0.5))
        assert out == ScorePair(0.2, 0.9)


class TestExample6UnionOfUsers:
    """Movies Alice and Bob could see jointly: R1 ∪_{F_S} R2."""

    def test_union(self, movie_db):
        from repro.core import algebra

        schema = movie_db.table("MOVIES").schema
        rows = movie_db.table("MOVIES").rows
        alice = PRelation(schema, rows[:3], [ScorePair(0.8, 1.0)] * 3)
        bob = PRelation(schema, rows[1:], [ScorePair(0.4, 1.0)] * 4)
        both = algebra.union(alice, bob)
        assert len(both) == 5
        shared = {row[0]: pair for row, pair in both}
        assert shared[2].score == pytest.approx(0.6)   # in both: combined
        assert shared[2].conf == pytest.approx(2.0)
        assert shared[1] == ScorePair(0.8, 1.0)        # Alice only
        assert shared[5] == ScorePair(0.4, 1.0)        # Bob only


class TestExample7JoinOnPRelations:
    def test_movies_join_directors(self, movie_db):
        """Fig. 3(c): join passes director pairs onto movies."""
        from repro.core import algebra
        from repro.engine.expressions import Attr, Comparison

        movies = PRelation.from_table(movie_db.table("MOVIES"))
        directors = PRelation.from_table(movie_db.table("DIRECTORS"))
        directors.pairs[0] = ScorePair(0.8, 1.0)
        directors.pairs[1] = ScorePair(0.9, 0.9)
        out = algebra.join(
            movies, directors, Comparison("=", Attr("MOVIES.d_id"), Attr("DIRECTORS.d_id"))
        )
        pairs = {row[0]: pair for row, pair in out}
        assert pairs[1] == ScorePair(0.8, 1.0)
        assert pairs[3] == ScorePair(0.8, 1.0)
        assert pairs[4] == ScorePair(0.9, 0.9)
        assert pairs[2] == IDENTITY


class TestExample8PreferChain:
    """λ_pb(λ_pa(MOVIES)) — covered numerically in test_prefer; here the
    operator-level claims."""

    def test_scores_accumulate_and_nothing_is_filtered(self, movie_db):
        pa = Preference("pa", "MOVIES", cmp("year", ">=", 2000), recency_score("year", 2011), 1.0)
        pb = Preference("pb", "MOVIES", cmp("duration", ">=", 120), around_score("duration", 120), 0.5)
        out = prefer(prefer(PRelation.from_table(movie_db.table("MOVIES")), pa), pb)
        assert len(out) == 5
        both = [p for p in out.pairs if p.conf == pytest.approx(1.5)]
        assert len(both) == 3  # Wall Street, Million Dollar Baby, Match Point


class TestExamples9To11Queries:
    """The three preferential-query flavours of Section V (Q1, Q2, Q3)."""

    @pytest.fixture
    def session(self, movie_db, example_preferences):
        s = Session(movie_db)
        s.register_all(example_preferences.values())
        return s

    def test_q1_top_k(self, session):
        rows = session.rows(
            """
            SELECT title, director FROM MOVIES
              NATURAL JOIN GENRES NATURAL JOIN DIRECTORS
              NATURAL JOIN CAST NATURAL JOIN ACTORS
            WHERE year >= 2005
            PREFERRING p1, p2, p3
            TOP 2 BY score
            """
        )
        assert len(rows) == 2
        # Scarlett (a_id 1, conf 1, score 1) movies dominate: Match Point & Scoop.
        assert {r[0] for r in rows} <= {"Match Point", "Scoop", "Gran Torino"}
        assert rows[0][2] >= rows[1][2]  # ordered by score

    def test_q2_confidence_threshold(self, session):
        safe = session.rows(
            """
            SELECT title FROM MOVIES
              NATURAL JOIN GENRES NATURAL JOIN DIRECTORS
            WHERE year >= 2005 AND conf >= 1.7
            PREFERRING p1, p2
            """
        )
        assert safe == []  # nothing satisfies both preferences at once here
        lenient = session.rows(
            """
            SELECT title FROM MOVIES
              NATURAL JOIN GENRES NATURAL JOIN DIRECTORS
            WHERE year >= 2005 AND conf >= 0.8
            PREFERRING p1, p2
            """
        )
        assert {r[0] for r in lenient} == {"Match Point", "Scoop", "Gran Torino"}

    def test_q3_blending(self, session):
        """Alice's mandatory preferences enriched with Bob's (Example 11)."""
        rows = session.rows(
            """
            SELECT title, MOVIES.m_id FROM MOVIES NATURAL JOIN DIRECTORS
            WHERE conf > 0 PREFERRING p2
            UNION
            SELECT title, MOVIES.m_id FROM MOVIES NATURAL JOIN DIRECTORS
            WHERE score > 0 PREFERRING p4, p5
            ORDER BY score
            """
        )
        titles = [r[0] for r in rows]
        assert "Gran Torino" in titles            # Alice's p2 (Eastwood) + Bob's p5
        assert {"Match Point", "Scoop"} <= set(titles)  # Bob's p4 (Allen)
        # Gran Torino satisfies preferences from both users: highest ranked.
        assert titles[0] == "Gran Torino"


class TestExample12OptimizedPlan:
    """Fig. 7: the optimizer pushes σ and λ down and reorders the prefers."""

    def test_prefer_ordering_by_selectivity(self, movie_db):
        from repro.optimizer import optimize
        from repro.plan.analysis import qualify_preferences
        from repro.plan.nodes import Prefer

        broad = Preference("p1", "GENRES", eq("genre", "Drama"), 0.5, 0.5)
        narrow = Preference("p2", "GENRES", eq("genre", "Comedy"), 0.5, 0.5)
        plan = scan("GENRES").prefer(broad).prefer(narrow).build()
        optimized = optimize(qualify_preferences(plan, movie_db.catalog), movie_db.catalog)
        (run,) = [n.run for n in optimized.walk() if isinstance(n, Prefer)]
        # The more restrictive p2 must be evaluated first: it leads the run.
        assert [p.name for p in run] == ["p2", "p1"]
