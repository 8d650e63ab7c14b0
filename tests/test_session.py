"""Integration tests for the Session facade (end-to-end SQL execution)."""

import pytest

from repro.core.preference import Preference
from repro.engine.expressions import eq
from repro.errors import PreferenceError, SchemaError
from repro.pexec.engine import STRATEGIES
from repro.query.session import Session


@pytest.fixture
def session(movie_db, example_preferences):
    s = Session(movie_db)
    s.register_all(example_preferences.values())
    return s


class TestRegistry:
    def test_duplicate_registration_rejected(self, session, example_preferences):
        with pytest.raises(PreferenceError):
            session.register(example_preferences["p1"])

    def test_unregister(self, session):
        session.unregister("p1")
        session.register(Preference("p1", "GENRES", eq("genre", "Drama"), 0.1, 0.1))


class TestExecution:
    def test_rows_helper_appends_pair(self, session):
        rows = session.rows(
            "SELECT title FROM MOVIES NATURAL JOIN GENRES "
            "PREFERRING p1 ORDER BY score"
        )
        assert rows[0][0] in ("Match Point", "Scoop")
        assert rows[0][1] == pytest.approx(0.8)
        assert rows[0][2] == pytest.approx(0.9)

    def test_order_by_ranks_best_first(self, session):
        rows = session.rows(
            "SELECT title FROM MOVIES NATURAL JOIN DIRECTORS "
            "PREFERRING p2 ORDER BY conf"
        )
        confs = [row[-1] for row in rows]
        assert confs == sorted(confs, reverse=True)

    def test_top_k(self, session):
        rows = session.rows(
            "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING p1 TOP 2 BY score"
        )
        assert len(rows) == 2

    def test_strategy_override(self, session):
        sql = "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING p1"
        default = session.rows(sql)
        ftp = session.rows(sql, strategy="ftp")
        assert sorted(default, key=repr) == sorted(ftp, key=repr)

    def test_compiled_query_reuse(self, session):
        q = session.compile("SELECT title FROM MOVIES WHERE year >= 2005")
        first = session.execute(q)
        second = session.execute(q)
        assert first.stats.rows == second.stats.rows == 4

    def test_plan_input(self, session):
        from repro.plan.builder import scan

        result = session.execute(scan("MOVIES").build())
        assert result.stats.rows == 5

    def test_example10_confidence_threshold(self, session):
        """Q2: only 'safe' suggestions reflecting enough preferences."""
        rows = session.rows(
            "SELECT title FROM MOVIES NATURAL JOIN GENRES NATURAL JOIN DIRECTORS "
            "WHERE conf >= 1.5 PREFERRING p1, p2"
        )
        assert rows == []  # no movie matches both p1 and p2 in the example db

    def test_example10_lower_threshold(self, session):
        rows = session.rows(
            "SELECT title FROM MOVIES NATURAL JOIN GENRES NATURAL JOIN DIRECTORS "
            "WHERE conf >= 0.8 PREFERRING p1, p2"
        )
        titles = {r[0] for r in rows}
        # Comedies (p1, conf .9) and Eastwood movies (p2, conf .8).
        assert titles == {"Match Point", "Scoop", "Gran Torino", "Million Dollar Baby"}

    def test_natural_join_keeps_both_copies_of_the_common_column(self, session):
        # A dialect rule, unlike SQL's NATURAL JOIN and the paper's ⋈: each
        # side keeps its d_id, so * returns both and a bare d_id is ambiguous.
        result = session.execute("SELECT * FROM MOVIES NATURAL JOIN DIRECTORS")
        names = [c.qualified_name for c in result.presented().schema.columns]
        assert names.count("MOVIES.d_id") == names.count("DIRECTORS.d_id") == 1
        with pytest.raises(SchemaError, match="ambiguous attribute 'd_id'"):
            session.execute("SELECT d_id FROM MOVIES NATURAL JOIN DIRECTORS")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bare_common_column_in_where_is_ambiguous_everywhere(self, session, strategy):
        # Resolved before any strategy runs: an optimizer that pushes the
        # selection to one join input must not make the name unambiguous.
        sql = "SELECT title FROM MOVIES NATURAL JOIN DIRECTORS WHERE d_id = 1"
        with pytest.raises(SchemaError, match="ambiguous attribute 'd_id'"):
            session.execute(sql, strategy=strategy)

    def test_blending_example11_shape(self, session):
        """Q3-style union of personal and social suggestions."""
        sql = (
            "SELECT title, MOVIES.m_id FROM MOVIES NATURAL JOIN DIRECTORS "
            "WHERE conf > 0 PREFERRING p2 "
            "UNION "
            "SELECT title, MOVIES.m_id FROM MOVIES NATURAL JOIN DIRECTORS "
            "WHERE score > 0 PREFERRING p4"
        )
        rows = session.rows(sql)
        titles = {r[0] for r in rows}
        assert "Gran Torino" in titles       # Eastwood (p2)
        assert {"Match Point", "Scoop"} <= titles  # Allen (p4)
