"""Unit tests for plan analysis (widening, stripping, qualification)."""

import pytest

from repro.core.aggregates import F_MAX
from repro.engine.expressions import cmp, eq
from repro.errors import SchemaError
from repro.plan.analysis import (
    is_left_deep,
    join_attributes,
    plan_depth,
    preference_attributes,
    preferred_relations,
    primary_key_attributes,
    qualify_preferences,
    required_carry_attributes,
    strip_prefers,
    widen_projections,
)
from repro.plan.builder import scan
from repro.plan.nodes import Join, Prefer, Project, Relation, Select


@pytest.fixture
def plan(movie_db, example_preferences):
    return (
        scan("MOVIES")
        .natural_join(scan("DIRECTORS").prefer(example_preferences["p2"]), movie_db.catalog)
        .select(eq("year", 2008))
        .project(["title"])
        .build()
    )


class TestIntrospection:
    def test_preference_attributes(self, plan):
        assert preference_attributes(plan) == {"d_id"}

    def test_join_attributes(self, plan):
        assert join_attributes(plan) == {"movies.d_id", "directors.d_id"}

    def test_preferred_relations(self, plan):
        assert preferred_relations(plan) == {"DIRECTORS"}

    def test_primary_keys_cover_all_leaves(self, plan, movie_db):
        keys = primary_key_attributes(plan, movie_db.catalog)
        assert keys == {"movies.m_id", "directors.d_id"}

    def test_required_carry(self, plan, movie_db):
        carry = required_carry_attributes(plan, movie_db.catalog)
        assert {"movies.m_id", "directors.d_id", "d_id"} <= carry

    def test_plan_depth(self, plan):
        assert plan_depth(plan) == 5

    def test_left_deep_detection(self, movie_db):
        left = Join(Join(Relation("MOVIES"), Relation("DIRECTORS"), eq("m_id", 1)), Relation("GENRES"), eq("m_id", 1))
        right = Join(Relation("GENRES"), Join(Relation("MOVIES"), Relation("DIRECTORS"), eq("m_id", 1)), eq("m_id", 1))
        assert is_left_deep(left)
        assert not is_left_deep(right)


class TestStripPrefers:
    def test_removes_all_prefers(self, plan):
        stripped = strip_prefers(plan)
        assert not stripped.contains_prefer()

    def test_preserves_everything_else(self, plan):
        stripped = strip_prefers(plan)
        kinds = [n.kind for n in stripped.walk()]
        assert kinds == ["project", "select", "join", "relation", "relation"]

    def test_stacked_prefers(self, example_preferences):
        plan = Prefer(
            Prefer(Relation("GENRES"), [example_preferences["p1"]], F_MAX),
            [example_preferences["p2"]],
        )
        assert strip_prefers(plan) == Relation("GENRES")


class TestWidening:
    def test_projection_widened_with_keys_and_pref_attrs(self, plan, movie_db):
        carry = required_carry_attributes(plan, movie_db.catalog)
        widened = widen_projections(plan, carry, movie_db.catalog)
        project = next(n for n in widened.walk() if isinstance(n, Project))
        kept = {a.lower() for a in project.attrs}
        assert "title" in kept
        assert any("m_id" in a for a in kept)
        assert any("d_id" in a for a in kept)

    def test_user_attrs_stay_first(self, plan, movie_db):
        carry = required_carry_attributes(plan, movie_db.catalog)
        widened = widen_projections(plan, carry, movie_db.catalog)
        project = next(n for n in widened.walk() if isinstance(n, Project))
        assert project.attrs[0] == "title"

    def test_idempotent(self, plan, movie_db):
        carry = required_carry_attributes(plan, movie_db.catalog)
        once = widen_projections(plan, carry, movie_db.catalog)
        twice = widen_projections(once, carry, movie_db.catalog)
        assert once == twice

    def test_plan_without_projection_unchanged(self, movie_db, example_preferences):
        plan = scan("GENRES").prefer(example_preferences["p1"]).build()
        carry = required_carry_attributes(plan, movie_db.catalog)
        assert widen_projections(plan, carry, movie_db.catalog) == plan


class TestQualifyPreferences:
    def test_prefer_nodes_qualified(self, movie_db, example_preferences):
        plan = scan("DIRECTORS").prefer(example_preferences["p2"]).build()
        qualified = qualify_preferences(plan, movie_db.catalog)
        preference = qualified.preferences()[0]
        assert preference.condition_attributes() == {"directors.d_id"}

    def test_preference_free_plan_unchanged(self, movie_db):
        plan = scan("MOVIES").select(eq("year", 2008)).build()
        assert qualify_preferences(plan, movie_db.catalog) == plan
