"""Unit tests for the fluent plan builder and the plan printer."""

import pytest

from repro.core.aggregates import F_MAX
from repro.engine.expressions import TRUE, eq
from repro.errors import PlanError
from repro.plan.builder import natural_join_condition, scan
from repro.plan.nodes import (
    Difference,
    Intersect,
    Join,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)
from repro.plan.printer import compact, explain


class TestBuilder:
    def test_scan(self):
        assert scan("MOVIES").build() == Relation("MOVIES")

    def test_alias(self):
        assert scan("MOVIES", "M").build() == Relation("MOVIES", "M")

    def test_chaining(self, example_preferences):
        plan = (
            scan("GENRES")
            .select(eq("genre", "Comedy"))
            .prefer(example_preferences["p1"])
            .project(["m_id"])
            .top(3)
            .build()
        )
        kinds = [node.kind for node in plan.walk()]
        assert kinds == ["topk", "project", "prefer", "select", "relation"]

    def test_prefer_all(self, example_preferences):
        prefs = [example_preferences["p1"], example_preferences["p2"]]
        plan = scan("GENRES").prefer_all(prefs).build()
        assert plan == Prefer(Relation("GENRES"), prefs)
        assert [p.name for p in plan.preferences()] == ["p1", "p2"]
        assert scan("GENRES").prefer_all([]).build() == Relation("GENRES")

    def test_prefers_build_one_run_per_aggregate(self, example_preferences):
        p1, p2, p3 = (example_preferences[n] for n in ("p1", "p2", "p3"))
        plan = scan("GENRES").prefer(p1).prefer(p2).prefer(p3, F_MAX).build()
        assert plan == Prefer(Prefer(Relation("GENRES"), [p1, p2]), [p3], F_MAX)

    def test_binary_builders(self):
        a, b = scan("MOVIES"), scan("MOVIES")
        assert isinstance(a.join(b, on=TRUE).build(), Join)
        assert isinstance(a.union(b).build(), Union)
        assert isinstance(a.intersect(b).build(), Intersect)
        assert isinstance(a.difference(b).build(), Difference)

    def test_builder_is_immutable(self):
        base = scan("MOVIES")
        base.select(eq("year", 2008))
        assert base.build() == Relation("MOVIES")


class TestNaturalJoin:
    def test_shared_attribute_found(self, movie_db):
        condition = natural_join_condition(
            movie_db.catalog, Relation("MOVIES"), Relation("DIRECTORS")
        )
        assert condition.attributes() == {"movies.d_id", "directors.d_id"}

    def test_multiple_shared_attributes(self, movie_db):
        condition = natural_join_condition(
            movie_db.catalog, Relation("MOVIES"), Relation("AWARDS")
        )
        # m_id AND year are shared.
        assert len(condition.attributes()) == 4

    def test_no_common_attributes_raises(self, movie_db):
        with pytest.raises(PlanError):
            natural_join_condition(
                movie_db.catalog, Relation("DIRECTORS"), Relation("GENRES")
            )

    def test_builder_method(self, movie_db):
        plan = scan("MOVIES").natural_join(scan("DIRECTORS"), movie_db.catalog).build()
        assert isinstance(plan, Join)


class TestPrinter:
    def test_explain_tree_shape(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS").prefer(example_preferences["p2"]), movie_db.catalog)
            .project(["title"])
            .build()
        )
        text = explain(plan)
        lines = text.splitlines()
        assert lines[0].startswith("π[title]")
        assert any("λ[p2]" in line for line in lines)
        assert any("MOVIES" in line for line in lines)
        assert "└─" in text

    def test_compact(self, example_preferences):
        plan = Prefer(Relation("GENRES"), [example_preferences["p1"]])
        assert compact(plan) == "λ[p1](GENRES)"
