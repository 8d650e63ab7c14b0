"""Unit tests for p-relations (Definition 2)."""

import pytest

from repro.core.prelation import PRelation
from repro.core.scorepair import IDENTITY, ScorePair
from repro.errors import ExecutionError


class TestPRelation:
    def test_from_table_defaults(self, movie_db):
        prel = PRelation.from_table(movie_db.table("MOVIES"))
        assert len(prel) == 5
        assert all(p == IDENTITY for p in prel.pairs)

    def test_pairs_length_checked(self, movie_db):
        schema = movie_db.table("MOVIES").schema
        with pytest.raises(ExecutionError):
            PRelation(schema, [(1,) * 5], [IDENTITY, IDENTITY])

    def test_from_triples(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        prel = PRelation.from_triples(
            schema, [((1, "A"), 0.5, 0.9), ((2, "B"), None, 0.0)]
        )
        assert prel.pairs[0] == ScorePair(0.5, 0.9)
        assert prel.pairs[1].is_default

    def test_triples_iteration(self, movie_db):
        prel = PRelation.from_table(movie_db.table("DIRECTORS"))
        triples = list(prel.triples())
        assert len(triples) == 3
        assert triples[0][1] is None and triples[0][2] == 0.0

    def test_scored_fraction(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        prel = PRelation(
            schema,
            [(1, "A"), (2, "B")],
            [ScorePair(0.5, 0.5), IDENTITY],
        )
        assert prel.scored_fraction() == 0.5
        assert PRelation(schema).scored_fraction() == 0.0

    def test_sorted_by_score_bottom_last(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        prel = PRelation(
            schema,
            [(1, "A"), (2, "B"), (3, "C")],
            [IDENTITY, ScorePair(0.9, 1.0), ScorePair(0.4, 1.0)],
        )
        ordered = prel.sorted_by("score")
        assert [r[0] for r in ordered.rows] == [2, 3, 1]

    def test_sorted_by_conf_ascending(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        prel = PRelation(
            schema,
            [(1, "A"), (2, "B")],
            [ScorePair(0.9, 0.2), ScorePair(0.1, 0.8)],
        )
        ordered = prel.sorted_by("conf", descending=False)
        assert [r[0] for r in ordered.rows] == [1, 2]

    def test_sorted_invalid_key(self, movie_db):
        prel = PRelation.from_table(movie_db.table("DIRECTORS"))
        with pytest.raises(ExecutionError):
            prel.sorted_by("title")

    def test_same_contents_order_insensitive(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        a = PRelation(schema, [(1, "A"), (2, "B")], [IDENTITY, ScorePair(0.5, 1.0)])
        b = PRelation(schema, [(2, "B"), (1, "A")], [ScorePair(0.5, 1.0), IDENTITY])
        assert a.same_contents(b)

    def test_same_contents_detects_pair_difference(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        a = PRelation(schema, [(1, "A")], [ScorePair(0.5, 1.0)])
        b = PRelation(schema, [(1, "A")], [ScorePair(0.6, 1.0)])
        assert not a.same_contents(b)

    def test_same_contents_tolerates_rounding(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        a = PRelation(schema, [(1, "A")], [ScorePair(0.5, 1.0)])
        b = PRelation(schema, [(1, "A")], [ScorePair(0.5 + 1e-12, 1.0)])
        assert a.same_contents(b)

    def test_multiset_counts_duplicates(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        a = PRelation(schema, [(1, "A"), (1, "A")], [IDENTITY, IDENTITY])
        b = PRelation(schema, [(1, "A")], [IDENTITY])
        assert not a.same_contents(b)
