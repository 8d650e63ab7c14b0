"""Tests for left-deep restructuring of commutative set operations."""

import pytest

from repro.engine.expressions import cmp
from repro.optimizer import optimize
from repro.optimizer.leftdeep import left_deepen
from repro.pexec.reference import evaluate_reference
from repro.plan.analysis import is_left_deep
from repro.plan.builder import natural_join_condition, scan
from repro.plan.nodes import Difference, Intersect, Join, Project, Relation, Select, Union


def branch(db, condition):
    return Select(Relation("MOVIES"), condition)


def deep_branch(db):
    return (
        scan("MOVIES")
        .natural_join(scan("DIRECTORS"), db.catalog)
        .project(["title", "MOVIES.m_id"])
        .build()
    )


def flat_branch(db):
    return scan("MOVIES").project(["title", "MOVIES.m_id"]).build()


class TestLeftDeepen:
    def test_union_swaps_binary_right_child(self, movie_db):
        plan = Union(flat_branch(movie_db), deep_branch(movie_db))
        assert not is_left_deep(plan)
        deepened = left_deepen(plan, movie_db.catalog)
        assert is_left_deep(deepened)
        # The join-bearing branch moved to the left child.
        assert any(isinstance(n, Join) for n in deepened.children()[0].walk())
        assert not any(isinstance(n, Join) for n in deepened.children()[1].walk())

    def test_union_swap_preserves_semantics(self, movie_db):
        plan = Union(flat_branch(movie_db), deep_branch(movie_db))
        deepened = left_deepen(plan, movie_db.catalog)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(deepened, movie_db.catalog)
        assert before.same_contents(after)

    def test_intersect_swaps(self, movie_db):
        plan = Intersect(flat_branch(movie_db), deep_branch(movie_db))
        deepened = left_deepen(plan, movie_db.catalog)
        assert is_left_deep(deepened)
        before = evaluate_reference(plan, movie_db.catalog)
        after = evaluate_reference(deepened, movie_db.catalog)
        assert before.same_contents(after)

    def test_difference_never_swaps(self, movie_db):
        plan = Difference(flat_branch(movie_db), deep_branch(movie_db))
        deepened = left_deepen(plan, movie_db.catalog)
        # Difference is not commutative: the tree shape must be preserved.
        assert deepened == plan

    def test_already_left_deep_untouched(self, movie_db):
        plan = Union(deep_branch(movie_db), flat_branch(movie_db))
        assert left_deepen(plan, movie_db.catalog) == plan

    def test_both_sides_binary_untouched(self, movie_db):
        plan = Union(deep_branch(movie_db), deep_branch(movie_db))
        assert left_deepen(plan, movie_db.catalog) == plan

    @pytest.mark.parametrize("operation", [Union, Intersect])
    def test_swap_never_renames_the_output(self, movie_db, operation):
        # Regression: a positional set operation is named after its left
        # input, so swapping inputs with different names renamed the output.
        catalog = movie_db.catalog
        movies, ratings = Relation("MOVIES"), Relation("RATINGS")
        joined = Join(movies, ratings, natural_join_condition(catalog, movies, ratings))
        plan = operation(
            Project(Relation("DIRECTORS"), ["d_id"]),
            Project(joined, ["MOVIES.m_id"]),
        )
        optimized = optimize(plan, catalog)
        assert optimized.schema(catalog).attribute_names == ("DIRECTORS.d_id",)
        before = evaluate_reference(plan, catalog)
        after = evaluate_reference(optimized, catalog)
        assert before.same_contents(after)
