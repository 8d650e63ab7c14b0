"""Unit tests for result conforming and the reference evaluator."""

import pytest

from repro.core.prelation import PRelation
from repro.core.scorepair import ScorePair
from repro.engine.expressions import TRUE, cmp, eq
from repro.errors import ExecutionError
from repro.pexec.conform import conform
from repro.pexec.reference import evaluate_reference
from repro.plan.nodes import (
    Difference,
    Intersect,
    Join,
    Materialized,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)


class TestConform:
    def test_identity_is_cheap(self, movie_db):
        prel = PRelation.from_table(movie_db.table("MOVIES"))
        assert conform(prel, prel.schema) is prel

    def test_reorders_columns(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        permuted = schema.project(["director", "d_id"])
        prel = PRelation(permuted, [("A", 1)], [ScorePair(0.5, 0.5)])
        out = conform(prel, schema)
        assert out.rows == [(1, "A")]
        assert out.pairs == [ScorePair(0.5, 0.5)]

    def test_bare_name_fallback(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        renamed = schema.rename("D")
        prel = PRelation(renamed, [(1, "A")])
        out = conform(prel, schema)
        assert out.rows == [(1, "A")]

    def test_missing_attribute_raises(self, movie_db):
        movies = movie_db.table("MOVIES").schema
        directors = movie_db.table("DIRECTORS").schema
        prel = PRelation(directors, [])
        with pytest.raises(ExecutionError):
            conform(prel, movies)


class TestReferenceEvaluator:
    def test_relation_default_pairs(self, movie_db):
        out = evaluate_reference(Relation("MOVIES"), movie_db.catalog)
        assert len(out) == 5
        assert all(p.is_default for p in out.pairs)

    def test_alias(self, movie_db):
        out = evaluate_reference(Relation("MOVIES", "M"), movie_db.catalog)
        assert out.schema.has("M.title")

    def test_materialized(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        node = Materialized(schema, [(9, "X")])
        out = evaluate_reference(node, movie_db.catalog)
        assert out.rows == [(9, "X")]

    def test_full_pipeline(self, movie_db, example_preferences):
        plan = TopK(
            Project(
                Prefer(
                    Select(Relation("GENRES"), cmp("m_id", ">", 1)),
                    [example_preferences["p1"]],
                ),
                ["m_id", "genre"],
            ),
            2,
            "score",
        )
        out = evaluate_reference(plan, movie_db.catalog)
        assert len(out) == 2
        assert out.pairs[0] == ScorePair(0.8, 0.9)

    def test_set_operations(self, movie_db):
        recent = Select(Relation("MOVIES"), cmp("year", ">=", 2005))
        drama_ids = Select(Relation("MOVIES"), cmp("duration", ">", 120))
        union = evaluate_reference(Union(recent, drama_ids), movie_db.catalog)
        inter = evaluate_reference(Intersect(recent, drama_ids), movie_db.catalog)
        diff = evaluate_reference(Difference(recent, drama_ids), movie_db.catalog)
        assert len(union) == 5
        assert len(inter) == 2
        assert len(diff) == 2

    def test_unknown_node_rejected(self, movie_db):
        class Strange:
            pass

        with pytest.raises(ExecutionError):
            evaluate_reference(Strange(), movie_db.catalog)


class TestLazyIntermediate:
    def test_to_prelation_requires_rows(self, movie_db):
        from repro.pexec.scorerel import Intermediate

        schema = movie_db.table("MOVIES").schema
        lazy = Intermediate(schema, None, ["MOVIES.m_id"], source=Relation("MOVIES"))
        with pytest.raises(ExecutionError, match="lazy"):
            lazy.to_prelation()

    def test_gbu_forces_lazy_root(self, movie_db, example_preferences):
        """A plan whose root is a prefer over a pure block still yields rows."""
        from repro.pexec.engine import ExecutionEngine

        plan = Prefer(
            Select(Relation("GENRES"), eq("genre", "Comedy")),
            [example_preferences["p1"]],
        )
        engine = ExecutionEngine(movie_db)
        gbu = engine.run(plan, "gbu")
        ref = engine.run(plan, "reference")
        assert gbu.relation.same_contents(ref.relation)
        assert gbu.stats.rows == 2
