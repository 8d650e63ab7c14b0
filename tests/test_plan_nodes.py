"""Unit tests for logical plan nodes."""

import pytest

from repro.core.aggregates import F_MAX, F_S
from repro.core.preference import Preference
from repro.engine.expressions import TRUE, cmp, eq
from repro.errors import PlanError
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


@pytest.fixture
def p1(example_preferences):
    return example_preferences["p1"]


class TestSchemas:
    def test_relation_schema(self, movie_db):
        schema = Relation("MOVIES").schema(movie_db.catalog)
        assert schema.has("title")

    def test_alias_schema(self, movie_db):
        schema = Relation("MOVIES", "M").schema(movie_db.catalog)
        assert schema.has("M.title")

    def test_select_preserves_schema(self, movie_db):
        node = Select(Relation("MOVIES"), eq("year", 2008))
        assert node.schema(movie_db.catalog) == Relation("MOVIES").schema(movie_db.catalog)

    def test_project_schema(self, movie_db):
        node = Project(Relation("MOVIES"), ["title"])
        assert node.schema(movie_db.catalog).attribute_names == ("MOVIES.title",)

    def test_join_schema_concatenates(self, movie_db):
        node = Join(Relation("MOVIES"), Relation("DIRECTORS"), TRUE)
        assert len(node.schema(movie_db.catalog)) == 7

    def test_union_requires_compatibility(self, movie_db):
        node = Union(Relation("MOVIES"), Relation("DIRECTORS"))
        with pytest.raises(PlanError):
            node.schema(movie_db.catalog)

    def test_prefer_schema_unchanged(self, movie_db, p1):
        node = Prefer(Relation("GENRES"), [p1])
        assert node.schema(movie_db.catalog) == Relation("GENRES").schema(movie_db.catalog)

    def test_materialized_schema(self, movie_db):
        schema = movie_db.table("MOVIES").schema
        node = Materialized(schema, [])
        assert node.schema(movie_db.catalog) is schema


class TestValidation:
    def test_project_requires_attrs(self):
        with pytest.raises(PlanError):
            Project(Relation("MOVIES"), [])

    def test_topk_validates_k(self):
        with pytest.raises(PlanError):
            TopK(Relation("MOVIES"), 0)

    def test_topk_validates_by(self):
        with pytest.raises(PlanError):
            TopK(Relation("MOVIES"), 3, by="title")

    def test_prefer_requires_a_preference(self):
        with pytest.raises(PlanError):
            Prefer(Relation("MOVIES"), [])


class TestPreferRuns:
    def test_over_extends_a_run_with_the_same_aggregate(self, example_preferences):
        p1, p2, p3 = (example_preferences[n] for n in ("p1", "p2", "p3"))
        run = Prefer(Relation("GENRES"), [p1, p2])
        assert Prefer.over(run, [p3]) == Prefer(Relation("GENRES"), [p1, p2, p3])
        assert Prefer.over(Prefer(Relation("GENRES"), [p1], F_MAX), [p2], F_MAX) == (
            Prefer(Relation("GENRES"), [p1, p2], F_MAX)
        )

    def test_over_stacks_a_run_with_another_aggregate(self, example_preferences):
        p1, p2 = example_preferences["p1"], example_preferences["p2"]
        # None stands for the query default, whichever it is: F_S is another value.
        for inner, outer in ((None, F_MAX), (F_MAX, None), (None, F_S)):
            below = Prefer(Relation("GENRES"), [p1], inner)
            stacked = Prefer.over(below, [p2], outer)
            assert stacked.child is below and stacked.run == (p2,)

    def test_compiled_is_kept_per_schema_and_copied(self, movie_db, p1):
        node = Prefer(Relation("GENRES"), [p1])
        schema = Relation("GENRES").schema(movie_db.catalog)
        first, second = node.compiled(F_S, schema), node.compiled(F_S, schema)
        assert first is not second
        assert first.group is second.group  # one compilation, two copies
        assert node.compiled(F_MAX, schema).group is not first.group


class TestTreeUtilities:
    def test_walk_preorder(self, p1):
        plan = Select(Prefer(Relation("GENRES"), [p1]), eq("genre", "Drama"))
        kinds = [node.kind for node in plan.walk()]
        assert kinds == ["select", "prefer", "relation"]

    def test_contains_prefer(self, p1):
        assert Prefer(Relation("GENRES"), [p1]).contains_prefer()
        assert not Select(Relation("GENRES"), TRUE).contains_prefer()

    def test_relations(self):
        plan = Join(Relation("MOVIES"), Relation("DIRECTORS"), TRUE)
        assert plan.relations() == {"MOVIES", "DIRECTORS"}

    def test_preferences_listed(self, example_preferences):
        p1, p2, p3, p4 = (example_preferences[f"p{n}"] for n in range(1, 5))
        plan = Prefer(
            Join(Prefer(Relation("GENRES"), [p1]), Prefer(Relation("DIRECTORS"), [p2]), TRUE),
            [p3, p4],
        )
        names = [p.name for p in plan.preferences()]
        # Fold order: the runs in reverse pre-order, each run as written.
        assert names == ["p2", "p1", "p3", "p4"]

    def test_with_children_rebuilds(self, p1):
        plan = Select(Relation("MOVIES"), eq("year", 2008))
        rebuilt = plan.with_children([Relation("GENRES")])
        assert isinstance(rebuilt, Select)
        assert rebuilt.child == Relation("GENRES")
        assert rebuilt.condition == plan.condition

    def test_structural_equality(self, p1):
        a = Prefer(Select(Relation("GENRES"), TRUE), [p1])
        b = Prefer(Select(Relation("GENRES"), TRUE), [p1])
        assert a == b and hash(a) == hash(b)

    def test_materialized_identity_equality(self, movie_db):
        schema = movie_db.table("MOVIES").schema
        a = Materialized(schema, [])
        b = Materialized(schema, [])
        assert a == a
        assert a != b

    def test_labels(self, p1):
        assert Relation("MOVIES", "M").label() == "MOVIES AS M"
        assert Prefer(Relation("GENRES"), [p1]).label() == "λ[p1]"
        assert Prefer(Relation("GENRES"), [p1, p1]).label() == "λ[p1, p1]"
        assert TopK(Relation("MOVIES"), 3, "conf").label() == "top(3, conf)"
