"""Unit tests for the prefer operator λ_{p,F} (Section IV-C)."""

import pytest

from repro.core.aggregates import F_MAX
from repro.core.prefer import prefer
from repro.core.preference import Preference
from repro.core.prelation import PRelation
from repro.core.scorepair import IDENTITY, ScorePair
from repro.core.scoring import around_score, recency_score
from repro.engine.expressions import TRUE, cmp, eq


@pytest.fixture
def movies(movie_db):
    return PRelation.from_table(movie_db.table("MOVIES"))


def pair_for(prel, m_id):
    for row, p in prel:
        if row[0] == m_id:
            return p
    raise AssertionError(f"movie {m_id} not found")


class TestExample8:
    """The paper's Example 8: p_a then p_b over MOVIES."""

    P_A = Preference(
        "p_a", "MOVIES", cmp("year", ">=", 2000), recency_score("year", 2011), 1.0
    )
    P_B = Preference(
        "p_b", "MOVIES", cmp("duration", ">=", 120), around_score("duration", 120), 0.5
    )

    def test_lambda_pa(self, movies):
        out = prefer(movies, self.P_A)
        # All five example movies are from ≥ 2000, all get S_m with conf 1.
        for row, p in out:
            assert p.score == pytest.approx(row[2] / 2011)
            assert p.conf == 1.0

    def test_lambda_pb_after_pa(self, movies):
        out = prefer(prefer(movies, self.P_A), self.P_B)
        # Gran Torino (116 min) fails p_b: keeps its p_a pair.
        gran = pair_for(out, 1)
        assert gran.conf == 1.0
        assert gran.score == pytest.approx(2008 / 2011)
        # Wall Street (133 min, 2010) satisfies both: F_S-combined.
        wall = pair_for(out, 2)
        s_a = 2010 / 2011
        s_b = 1 - 13 / 120
        assert wall.conf == pytest.approx(1.5)
        assert wall.score == pytest.approx((1.0 * s_a + 0.5 * s_b) / 1.5)

    def test_prefer_does_not_filter(self, movies):
        """Preference evaluation is not tuple filtering (Section I)."""
        narrow = Preference("narrow", "MOVIES", eq("m_id", 1), 1.0, 1.0)
        out = prefer(movies, narrow)
        assert len(out) == len(movies)
        assert sum(1 for _, p in out if not p.is_default) == 1

    def test_input_not_mutated(self, movies):
        before = list(movies.pairs)
        prefer(movies, self.P_A)
        assert movies.pairs == before


class TestSemantics:
    def test_true_condition_scores_everything(self, movies):
        p = Preference("all", "MOVIES", TRUE, 0.5, 0.8)
        out = prefer(movies, p)
        assert all(pr == ScorePair(0.5, 0.8) for pr in out.pairs)

    def test_bottom_scoring_keeps_confidence(self, movies):
        # Scoring over a NULL attribute yields ⊥; the matched preference
        # still contributes its confidence (evidence without a score) —
        # dropping it would break F's identity law for ⟨⊥, c⟩ pairs.
        movie_db_rows = list(movies.rows)
        movies.rows[0] = movie_db_rows[0][:2] + (None,) + movie_db_rows[0][3:]
        p = Preference("rec", "MOVIES", TRUE, recency_score("year", 2011), 0.9)
        out = prefer(movies, p)
        assert out.pairs[0].is_bottom
        assert out.pairs[0].conf == pytest.approx(0.9)
        assert not out.pairs[1].is_default

    def test_aggregate_choice_respected(self, movies):
        p1 = Preference("a", "MOVIES", TRUE, 0.2, 0.9)
        p2 = Preference("b", "MOVIES", TRUE, 0.9, 0.3)
        out = prefer(prefer(movies, p1, F_MAX), p2, F_MAX)
        assert all(p == ScorePair(0.2, 0.9) for p in out.pairs)

    def test_commutativity_property_4_3(self, movies):
        """λ_p1(λ_p2(R)) = λ_p2(λ_p1(R)) (Property 4.3)."""
        p1 = Preference("a", "MOVIES", cmp("year", ">", 2005), 0.7, 0.6)
        p2 = Preference(
            "b", "MOVIES", cmp("duration", "<", 125), recency_score("year", 2011), 0.9
        )
        order1 = prefer(prefer(movies, p1), p2)
        order2 = prefer(prefer(movies, p2), p1)
        assert order1.same_contents(order2)

    def test_same_preference_twice_reinforces(self, movies):
        p = Preference("a", "MOVIES", TRUE, 0.5, 0.4)
        out = prefer(prefer(movies, p), p)
        assert all(pr.conf == pytest.approx(0.8) for pr in out.pairs)
        assert all(pr.score == pytest.approx(0.5) for pr in out.pairs)
