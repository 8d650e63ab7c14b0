"""An online video-rental service (the paper's Section V scenario).

Reproduces the three preferential-query flavours of Examples 9–11 over the
synthetic IMDB database:

* Q1 — top-k: highlight movie titles Alice may like.
* Q2 — most-confident results: only "safe" suggestions above a confidence
  threshold τ.
* Q3 — blending preferences with recommendations: Alice's mandatory
  preferences enriched with Bob's, combined with a union.

Run:  python examples/movie_recommendations.py
"""

from repro import Preference, eq, recency_score
from repro.query import Session
from repro.workloads import generate_imdb


def main() -> None:
    print("Generating a synthetic IMDB database (1/500 scale)...")
    db = generate_imdb(scale=0.002, seed=7)
    for name in db.catalog.table_names():
        print(f"  {name:<10} {len(db.table(name)):>8} rows")
    print()

    session = Session(db)
    # Alice's preferences (Fig. 5).
    session.register_all(
        [
            Preference("p1", "GENRES", eq("genre", "Comedy"), 0.8, 0.9),
            Preference("p2", "DIRECTORS", eq("d_id", 1), 0.9, 0.8),
            Preference("p3", "ACTORS", eq("a_id", 1), 1.0, 1.0),
            # Bob's preferences.
            Preference(
                "p4",
                ("MOVIES", "DIRECTORS"),
                eq("director", "Director 2"),
                recency_score("year", 2011),
                0.9,
            ),
            Preference("p5", "MOVIES", eq("m_id", 1), 1.0, 1.0),
        ]
    )

    # --- Example 9: top-k among recent movies -----------------------------------
    print("Q1 — top-5 recent movies for Alice (Example 9):")
    rows = session.rows(
        """
        SELECT title, director FROM MOVIES
          NATURAL JOIN GENRES
          NATURAL JOIN DIRECTORS
          NATURAL JOIN CAST
          NATURAL JOIN ACTORS
        WHERE year >= 2005
        PREFERRING p1, p2, p3
        TOP 5 BY score
        """
    )
    for title, director, score, conf in rows:
        print(f"  {title:<12} by {director:<14} score={score:.3f} conf={conf:.2f}")
    print()

    # --- Example 10: only safe (confident) suggestions ---------------------------
    tau = 0.85
    print(f"Q2 — suggestions with confidence ≥ {tau} (Example 10):")
    rows = session.rows(
        f"""
        SELECT title, genre FROM MOVIES
          NATURAL JOIN GENRES
          NATURAL JOIN DIRECTORS
        WHERE year >= 2005 AND conf >= {tau}
        PREFERRING p1, p2
        ORDER BY conf
        """
    )
    for title, genre, score, conf in rows[:8]:
        print(f"  {title:<12} [{genre}] score={score:.3f} conf={conf:.2f}")
    print(f"  ({len(rows)} safe suggestions in total)")
    print()

    # --- Example 11: blending Alice's and Bob's preferences ----------------------
    print("Q3 — Alice's picks blended with Bob's (Example 11):")
    rows = session.rows(
        """
        SELECT title, MOVIES.m_id FROM MOVIES
          NATURAL JOIN DIRECTORS
        WHERE conf > 0
        PREFERRING p2
        UNION
        SELECT title, MOVIES.m_id FROM MOVIES
          NATURAL JOIN DIRECTORS
        WHERE score > 0
        PREFERRING p4, p5
        ORDER BY score
        """
    )
    for title, m_id, score, conf in rows[:8]:
        print(f"  {title:<12} (m_id={m_id}) score={score:.3f} conf={conf:.2f}")
    print(f"  ({len(rows)} blended suggestions in total)")


if __name__ == "__main__":
    main()
