"""Unit tests for the native optimizer: pushdowns and join ordering."""

import pytest

from repro.engine.expressions import TRUE, And, cmp, eq, is_true
from repro.engine.native_optimizer import optimize_native, order_joins, push_selections
from repro.pexec.reference import evaluate_reference
from repro.plan.analysis import is_left_deep
from repro.plan.builder import natural_join_condition, scan
from repro.plan.nodes import Join, Prefer, Project, Relation, Select, TopK, Union


def joined(db, *names):
    builder = scan(names[0])
    for name in names[1:]:
        builder = builder.natural_join(scan(name), db.catalog)
    return builder


class TestPushSelections:
    def test_selection_reaches_its_relation(self, movie_db):
        plan = joined(movie_db, "MOVIES", "DIRECTORS").select(eq("year", 2008)).build()
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Join)
        # The selection must now sit directly above MOVIES.
        selects = [n for n in optimized.walk() if isinstance(n, Select)]
        assert len(selects) == 1
        assert isinstance(selects[0].child, Relation)
        assert selects[0].child.name == "MOVIES"

    def test_conjunction_is_split(self, movie_db):
        condition = And(eq("year", 2008), eq("director", "C. Eastwood"))
        plan = joined(movie_db, "MOVIES", "DIRECTORS").select(condition).build()
        optimized = push_selections(plan, movie_db.catalog)
        selects = [n for n in optimized.walk() if isinstance(n, Select)]
        assert len(selects) == 2
        assert {s.child.name for s in selects} == {"MOVIES", "DIRECTORS"}

    def test_score_conjunct_never_enters_a_join_condition(self, movie_db):
        # Regression: a conf filter over a preference-free join used to be
        # classified "join" by _side_of and merged into the join condition.
        plan = joined(movie_db, "MOVIES", "DIRECTORS").select(
            cmp("conf", ">=", 0.2)
        ).build()
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Select)
        assert optimized.condition.references_score()
        join = optimized.child
        assert isinstance(join, Join)
        assert not join.condition.references_score()

    def test_join_spanning_condition_stays_at_join(self, movie_db):
        from repro.engine.expressions import Attr, Comparison

        spanning = Comparison("<", Attr("MOVIES.year"), Attr("AWARDS.year"))
        plan = (
            scan("MOVIES").join(scan("AWARDS"), on=TRUE).select(spanning).build()
        )
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Join)
        assert not is_true(optimized.condition)

    def test_score_filter_does_not_cross_prefer(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .prefer(example_preferences["p1"])
            .select(cmp("conf", ">", 0.5))
            .build()
        )
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Select)  # stays above the prefer
        assert isinstance(optimized.child, Prefer)

    def test_ordinary_filter_crosses_prefer(self, movie_db, example_preferences):
        plan = (
            scan("GENRES")
            .prefer(example_preferences["p1"])
            .select(eq("genre", "Drama"))
            .build()
        )
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Prefer)
        assert isinstance(optimized.child, Select)

    def test_nothing_crosses_topk(self, movie_db):
        plan = scan("MOVIES").top(3).select(eq("year", 2008)).build()
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, TopK)

    def test_nothing_crosses_set_ops(self, movie_db):
        plan = (
            scan("MOVIES")
            .union(scan("MOVIES"))
            .select(eq("year", 2008))
            .build()
        )
        optimized = push_selections(plan, movie_db.catalog)
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, Union)

    def test_semantics_preserved(self, movie_db):
        plan = (
            joined(movie_db, "MOVIES", "DIRECTORS", "GENRES")
            .select(And(eq("genre", "Drama"), cmp("year", ">", 2004)))
            .build()
        )
        optimized = push_selections(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(optimized, movie_db.catalog)
        assert before.same_contents(after)


class TestOrderJoins:
    def test_produces_left_deep(self, movie_db):
        plan = joined(movie_db, "MOVIES", "DIRECTORS", "GENRES", "RATINGS").build()
        ordered = order_joins(plan, movie_db.catalog)
        assert is_left_deep(ordered)

    def test_smallest_relation_first(self, movie_db):
        plan = joined(movie_db, "MOVIES", "DIRECTORS").build()
        ordered = order_joins(plan, movie_db.catalog)
        # DIRECTORS (3 rows) should be chosen before MOVIES (5 rows).
        leaves = [n for n in ordered.walk() if isinstance(n, Relation)]
        assert leaves[0].name == "DIRECTORS"

    def test_semantics_preserved(self, movie_db):
        plan = (
            joined(movie_db, "MOVIES", "DIRECTORS", "GENRES")
            .project(["title", "director", "genre"])
            .build()
        )
        ordered = order_joins(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(ordered, movie_db.catalog)
        # Column order may differ below the projection; the projection fixes it.
        assert before.same_contents(after)

    def test_cross_product_components_joined_last(self, movie_db):
        plan = Join(
            Join(Relation("MOVIES"), Relation("DIRECTORS"), TRUE),
            Relation("ACTORS"),
            TRUE,
        )
        ordered = order_joins(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(ordered, movie_db.catalog)
        assert len(before) == len(after) == 45

    def test_full_pipeline(self, movie_db):
        plan = (
            joined(movie_db, "MOVIES", "DIRECTORS", "GENRES")
            .select(eq("genre", "Comedy"))
            .project(["title", "director"])
            .build()
        )
        optimized = optimize_native(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(optimized, movie_db.catalog)
        assert before.same_contents(after)
        assert is_left_deep(optimized)


IMDB_1 = ("MOVIES", "GENRES", "DIRECTORS", "CAST", "ACTORS")


@pytest.fixture(scope="module")
def imdb_db():
    from repro.workloads.imdb import generate_imdb

    return generate_imdb(scale=0.001, seed=2012)


@pytest.mark.parametrize(
    "names, cutoff, leaves, conditions",
    [
        (
            IMDB_1, 2003,
            ["DIRECTORS", "MOVIES", "GENRES", "CAST", "ACTORS"],
            ["(CAST.a_id = ACTORS.a_id)", "(GENRES.m_id = CAST.m_id)",
             "(MOVIES.m_id = GENRES.m_id)", "(MOVIES.d_id = DIRECTORS.d_id)"],
        ),
        (
            IMDB_1, 2007,
            ["MOVIES", "GENRES", "DIRECTORS", "CAST", "ACTORS"],
            ["(CAST.a_id = ACTORS.a_id)", "(GENRES.m_id = CAST.m_id)",
             "(MOVIES.d_id = DIRECTORS.d_id)", "(MOVIES.m_id = GENRES.m_id)"],
        ),
        (("MOVIES", "GENRES"), 2004, ["MOVIES", "GENRES"], ["(MOVIES.m_id = GENRES.m_id)"]),
    ],
)
def test_greedy_join_order_is_pinned(imdb_db, names, cutoff, leaves, conditions):
    """The greedy order chosen for the IMDB-1 5-way join (two cut-offs that
    order it differently) and the 2-way MOVIES ⋈ GENRES join."""
    plan = joined(imdb_db, *names).select(cmp("year", ">=", cutoff)).project(["title"]).build()
    optimized = optimize_native(plan, imdb_db.catalog)
    assert is_left_deep(optimized)
    assert [n.name for n in optimized.walk() if isinstance(n, Relation)] == leaves
    assert [repr(n.condition) for n in optimized.walk() if isinstance(n, Join)] == conditions
