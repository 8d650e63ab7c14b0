"""Shared fixtures: the paper's running movie example and small synthetic DBs."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import Database, DataType, Preference, cmp, eq, recency_score
from repro.workloads import generate_dblp, generate_imdb

#: ``--hypothesis-profile=deep`` runs the properties that size themselves
#: through :func:`examples` on at least 1000 examples each; without it,
#: Hypothesis's default profile applies unchanged.
settings.register_profile("deep", max_examples=1000)


def examples(count: int) -> int:
    """*count* Hypothesis examples, or the active profile's when it asks for more.

    An explicit ``@settings(max_examples=...)`` overrides any profile, so a
    property that should deepen under ``deep`` asks through this helper.
    """
    return max(count, settings.default.max_examples)


MOVIES_ROWS = [
    # (m_id, title, year, duration, d_id) — the paper's Fig. 3(a) movies.
    (1, "Gran Torino", 2008, 116, 1),
    (2, "Wall Street", 2010, 133, 3),
    (3, "Million Dollar Baby", 2004, 132, 1),
    (4, "Match Point", 2005, 124, 2),
    (5, "Scoop", 2006, 96, 2),
]

DIRECTORS_ROWS = [
    (1, "C. Eastwood"),
    (2, "W. Allen"),
    (3, "O. Stone"),
]

GENRES_ROWS = [
    (1, "Drama"),
    (2, "Drama"),
    (3, "Drama"),
    (4, "Comedy"),
    (4, "Drama"),
    (5, "Comedy"),
]

RATINGS_ROWS = [
    # (m_id, rating, votes)
    (1, 8.1, 120000),
    (2, 6.2, 40),
    (3, 8.1, 90000),
    (4, 7.6, 55000),
    (5, 6.7, 30),
]

AWARDS_ROWS = [
    (3, "Academy Award", 2005),
    (1, "Golden Globe", 2009),
]

ACTORS_ROWS = [
    (1, "S. Johansson"),
    (2, "C. Eastwood"),
    (3, "M. Caine"),
]

CAST_ROWS = [
    (4, 1, "lead"),
    (5, 1, "lead"),
    (1, 2, "lead"),
    (3, 2, "lead"),
    (5, 3, "supporting"),
]


def build_movie_db() -> Database:
    """The small movie database used throughout the paper's examples."""
    db = Database()
    db.create_table(
        "MOVIES",
        [
            ("m_id", DataType.INT),
            ("title", DataType.TEXT),
            ("year", DataType.INT),
            ("duration", DataType.INT),
            ("d_id", DataType.INT),
        ],
        primary_key=["m_id"],
    )
    db.create_table(
        "DIRECTORS",
        [("d_id", DataType.INT), ("director", DataType.TEXT)],
        primary_key=["d_id"],
    )
    db.create_table(
        "GENRES",
        [("m_id", DataType.INT), ("genre", DataType.TEXT)],
        primary_key=["m_id", "genre"],
    )
    db.create_table(
        "RATINGS",
        [("m_id", DataType.INT), ("rating", DataType.FLOAT), ("votes", DataType.INT)],
        primary_key=["m_id"],
    )
    db.create_table(
        "AWARDS",
        [("m_id", DataType.INT), ("award", DataType.TEXT), ("year", DataType.INT)],
        primary_key=["m_id", "award"],
    )
    db.create_table(
        "ACTORS",
        [("a_id", DataType.INT), ("actor", DataType.TEXT)],
        primary_key=["a_id"],
    )
    db.create_table(
        "CAST",
        [("m_id", DataType.INT), ("a_id", DataType.INT), ("role", DataType.TEXT)],
        primary_key=["m_id", "a_id"],
    )
    db.insert_many("MOVIES", MOVIES_ROWS)
    db.insert_many("DIRECTORS", DIRECTORS_ROWS)
    db.insert_many("GENRES", GENRES_ROWS)
    db.insert_many("RATINGS", RATINGS_ROWS)
    db.insert_many("AWARDS", AWARDS_ROWS)
    db.insert_many("ACTORS", ACTORS_ROWS)
    db.insert_many("CAST", CAST_ROWS)
    db.analyze()
    return db


def assert_plans_equivalent(db: Database, plan_a, plan_b) -> None:
    """Both plans produce the same p-relation (column order normalized)."""
    from repro.pexec.conform import conform
    from repro.pexec.reference import evaluate_reference

    a = evaluate_reference(plan_a, db.catalog)
    b = evaluate_reference(plan_b, db.catalog)
    b = conform(b, plan_a.schema(db.catalog))
    assert a.same_contents(b), "plans are not equivalent"


@pytest.fixture
def movie_db() -> Database:
    return build_movie_db()


@pytest.fixture
def movie_db_indexed() -> Database:
    db = build_movie_db()
    db.create_index("MOVIES", "d_id")
    db.create_index("MOVIES", "year", kind="btree")
    db.create_index("GENRES", "genre")
    db.create_index("GENRES", "m_id")
    return db


@pytest.fixture
def example_preferences() -> dict[str, Preference]:
    """The paper's Fig. 5 preference set (Alice & Bob)."""
    return {
        "p1": Preference("p1", "GENRES", eq("genre", "Comedy"), 0.8, 0.9),
        "p2": Preference("p2", "DIRECTORS", eq("d_id", 1), 0.9, 0.8),
        "p3": Preference("p3", "ACTORS", eq("a_id", 1), 1.0, 1.0),
        "p4": Preference(
            "p4",
            ("MOVIES", "DIRECTORS"),
            eq("director", "W. Allen"),
            recency_score("year", 2011),
            0.9,
        ),
        "p5": Preference("p5", "MOVIES", eq("m_id", 1), 1.0, 1.0),
    }


@pytest.fixture(scope="session")
def imdb_tiny() -> Database:
    """Synthetic IMDB at 1/2000 scale — shared across strategy tests."""
    return generate_imdb(scale=0.0005, seed=11)


@pytest.fixture(scope="session")
def dblp_tiny() -> Database:
    return generate_dblp(scale=0.0005, seed=13)

