"""Unit tests for the preference optimizer's heuristic rules 1–5 (§VI-A)."""

import pytest

from repro.core.preference import Preference
from repro.engine.expressions import TRUE, And, cmp, eq
from repro.optimizer.rules import (
    push_prefers,
    push_projections,
    push_selections,
    reorder_prefers,
)
from repro.optimizer.selectivity import preference_selectivity
from repro.pexec.reference import evaluate_reference
from repro.plan.analysis import qualify_preferences
from repro.plan.builder import natural_join_condition, scan
from repro.plan.nodes import (
    Intersect,
    Join,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)


def qualified(db, plan):
    return qualify_preferences(plan, db.catalog)


class TestRule2Projections:
    def test_projection_inserted_above_relations(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .project(["title"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pruned = push_projections(plan, movie_db.catalog)
        inner = [
            n for n in pruned.walk() if isinstance(n, Project) and isinstance(n.child, Relation)
        ]
        assert inner, "expected pushed-down projections above base relations"
        movies_proj = next(p for p in inner if p.child.name == "MOVIES")
        kept = {a.lower() for a in movies_proj.attrs}
        assert "movies.duration" not in kept  # unused column pruned

    def test_needed_attributes_survive(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .project(["title"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pruned = push_projections(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(pruned, movie_db.catalog)
        assert before.same_contents(after)

    def test_no_projection_means_no_pruning(self, movie_db):
        plan = scan("MOVIES").select(eq("year", 2008)).build()
        assert push_projections(plan, movie_db.catalog) == plan

    def test_union_under_project_keeps_full_width(self, movie_db):
        plan = Project(
            Union(Relation("MOVIES"), Relation("MOVIES")), ["title"]
        )
        assert push_projections(plan, movie_db.catalog) == plan


class TestRules34PreferPushdown:
    def test_prefer_pushed_to_owning_join_side(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert isinstance(pushed, Join)
        prefer_node = next(n for n in pushed.walk() if isinstance(n, Prefer))
        assert isinstance(prefer_node.child, Relation)
        assert prefer_node.child.name == "DIRECTORS"

    def test_prefer_stops_on_top_of_select(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .select(eq("m_id", 4))
            .prefer(example_preferences["p1"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert isinstance(pushed, Prefer)
        assert isinstance(pushed.child, Select)

    def test_multi_relational_preference_stays(self, movie_db):
        from repro.core.scoring import recency_score

        # p6 reads genre (GENRES) in the condition and year (MOVIES) in the
        # scoring part: neither join side owns all attributes.
        p6 = Preference(
            "p6",
            ("MOVIES", "GENRES"),
            eq("genre", "Action"),
            recency_score("year", 2011),
            0.8,
        )
        plan = (
            scan("MOVIES")
            .natural_join(scan("GENRES"), movie_db.catalog)
            .prefer(p6)
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert isinstance(pushed, Prefer)  # cannot sink into either side alone

    def test_membership_preference_stays_on_product(self, movie_db):
        p7 = Preference.membership(("MOVIES", "AWARDS"), 1.0, 0.9)
        plan = (
            scan("MOVIES")
            .join(scan("AWARDS"), on=eq("MOVIES.m_id", 1))
            .prefer(p7)
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        assert isinstance(pushed, Prefer)

    def test_prefer_not_pushed_through_union(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .union(scan("GENRES"))
            .prefer(example_preferences["p1"])
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        assert isinstance(pushed, Prefer)
        assert isinstance(pushed.child, Union)

    def test_prefer_pushed_through_intersection(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .intersect(scan("GENRES"))
            .prefer(example_preferences["p1"])
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        assert isinstance(pushed, Intersect)
        assert isinstance(pushed.children()[0], Prefer)

    def test_chain_sinks_through_sibling_prefers(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .prefer(example_preferences["p2"])
            .prefer(
                Preference("pm", "MOVIES", cmp("year", ">", 2005), 0.5, 0.5)
            )
            .build()
        )
        pushed = push_prefers(qualified(movie_db, plan), movie_db.catalog)
        prefer_nodes = [n for n in pushed.walk() if isinstance(n, Prefer)]
        assert len(prefer_nodes) == 2
        children = {n.child.name for n in prefer_nodes if isinstance(n.child, Relation)}
        assert children == {"MOVIES", "DIRECTORS"}

    def test_semantics_preserved(self, movie_db, example_preferences):
        plan = (
            scan("MOVIES")
            .natural_join(scan("DIRECTORS"), movie_db.catalog)
            .natural_join(scan("GENRES"), movie_db.catalog)
            .prefer(example_preferences["p1"])
            .prefer(example_preferences["p2"])
            .build()
        )
        plan = qualified(movie_db, plan)
        pushed = push_prefers(plan, movie_db.catalog)
        assert evaluate_reference(plan, movie_db.catalog).same_contents(
            evaluate_reference(pushed, movie_db.catalog)
        )


class TestRule5Reordering:
    def test_more_selective_preference_goes_lower(self, movie_db):
        broad = Preference("broad", "GENRES", eq("genre", "Drama"), 0.5, 0.5)
        narrow = Preference("narrow", "GENRES", eq("genre", "Comedy"), 0.5, 0.5)
        base = Relation("GENRES")
        assert preference_selectivity(narrow, base, movie_db.catalog) < (
            preference_selectivity(broad, base, movie_db.catalog)
        )
        plan = Prefer(Prefer(base, narrow), broad)  # narrow evaluated first: OK
        plan2 = Prefer(Prefer(base, broad), narrow)  # wrong order
        ordered = reorder_prefers(plan2, movie_db.catalog)
        chain = [n.preference.name for n in ordered.walk() if isinstance(n, Prefer)]
        assert chain == ["broad", "narrow"]  # outermost first ⇒ narrow deepest

    def test_single_prefer_untouched(self, movie_db, example_preferences):
        plan = Prefer(Relation("GENRES"), example_preferences["p1"])
        assert reorder_prefers(plan, movie_db.catalog) == plan

    def test_semantics_preserved(self, movie_db):
        a = Preference("a", "GENRES", eq("genre", "Drama"), 0.4, 0.6)
        b = Preference("b", "GENRES", eq("genre", "Comedy"), 0.9, 0.2)
        plan = Prefer(Prefer(Relation("GENRES"), a), b)
        ordered = reorder_prefers(plan, movie_db.catalog)
        assert evaluate_reference(plan, movie_db.catalog).same_contents(
            evaluate_reference(ordered, movie_db.catalog)
        )
