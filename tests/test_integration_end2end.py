"""End-to-end integration scenarios stitching all subsystems together."""

import pytest

from repro import ContextualPreference, Preference, eq
from repro.engine.persist import load_database, save_database
from repro.pexec.engine import STRATEGIES, ExecutionEngine
from repro.query import PreferenceStore, Session
from repro.workloads import generate_imdb


@pytest.fixture(scope="module")
def db():
    return generate_imdb(scale=0.0005, seed=99)


class TestFullPipeline:
    """generate → persist → reload → store → query."""

    def test_persisted_database_round_trips_through_queries(self, db, tmp_path):
        save_database(db, str(tmp_path))
        reloaded = load_database(str(tmp_path))

        sql = (
            "SELECT title FROM MOVIES NATURAL JOIN GENRES "
            "PREFERRING (genre = 'Drama') SCORE 0.7 CONFIDENCE 0.8 ON GENRES "
            "TOP 5 BY score"
        )
        original_rows = Session(db).rows(sql)
        reloaded_rows = Session(reloaded).rows(sql)
        assert original_rows == reloaded_rows

    def test_learnt_preferences_through_store_and_strategies(self, db):
        # The paper assumes learnt preferences already exist; hand-written
        # atoms of the same shapes stand in for them: one per rated movie
        # and one per genre.
        movies = db.table("MOVIES").rows
        store = PreferenceStore(db)
        store.add_all(
            "user",
            [
                Preference(
                    f"rated_{movies[i][0]}",
                    "MOVIES",
                    eq("m_id", movies[i][0]),
                    0.9 if i % 2 == 0 else 0.2,
                    1.0,
                )
                for i in range(10)
            ],
        )
        store.add_all(
            "user",
            [
                Preference("likes_drama", "GENRES", eq("genre", "Drama"), 0.8, 0.6),
                Preference("likes_comedy", "GENRES", eq("genre", "Comedy"), 0.6, 0.4),
            ],
        )
        assert len(store.preferences_of("user")) == 12

        session = store.session_for("user")
        sql = (
            "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES "
            "PREFERRING likes_drama, likes_comedy, rated_%d TOP 5 BY score"
            % movies[0][0]
        )
        reference = session.execute(sql, strategy="reference")
        for strategy in STRATEGIES:
            result = session.execute(sql, strategy=strategy)
            assert result.relation.same_contents(reference.relation), strategy

    def test_contextual_blend_through_store(self, db):
        store = PreferenceStore(db)
        store.add("alice", Preference("likes_drama", "GENRES", eq("genre", "Drama"), 0.8, 0.9))
        store.add(
            "alice",
            ContextualPreference(
                Preference("late_comedy", "GENRES", eq("genre", "Comedy"), 0.9, 0.8),
                {"daytime": "night"},
            ),
        )
        session = store.session_for("alice", context={"daytime": "night"})
        rows = session.rows(
            "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES "
            "WHERE conf > 0 PREFERRING likes_drama, late_comedy ORDER BY score"
        )
        assert rows
        # The night-only comedy preference is active and blended with the
        # unconditional one: each kept row carries exactly one of the two.
        assert {genre for _, genre, _, _ in rows} == {"Drama", "Comedy"}
        for _, genre, score, conf in rows:
            expected = (0.9, 0.8) if genre == "Comedy" else (0.8, 0.9)
            assert (score, conf) == pytest.approx(expected)

    def test_cross_strategy_agreement_on_persisted_db(self, db, tmp_path):
        save_database(db, str(tmp_path))
        reloaded = load_database(str(tmp_path))
        engine = ExecutionEngine(reloaded)
        from repro.plan.builder import scan

        p = Preference("pp", "GENRES", eq("genre", "Comedy"), 0.9, 0.9)
        plan = (
            scan("MOVIES")
            .natural_join(scan("GENRES").prefer(p), reloaded.catalog)
            .top(5, by="score")
            .build()
        )
        reference = engine.run(plan, "reference")
        for strategy in STRATEGIES:
            assert engine.run(plan, strategy).relation.same_contents(reference.relation)
