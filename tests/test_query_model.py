"""Unit tests for the query compiler (SQL → extended plan)."""

import pytest

from repro.core.preference import Preference
from repro.engine.expressions import eq
from repro.errors import ParseError
from repro.plan.nodes import Join, Prefer, Project, Relation, Select, TopK, Union
from repro.query.model import QueryCompiler


@pytest.fixture
def compiler(movie_db, example_preferences):
    registry = {name: p for name, p in example_preferences.items()}
    return QueryCompiler(movie_db.catalog, registry)


class TestPlanShape:
    def test_simple_select(self, compiler):
        plan = compiler.compile("SELECT title FROM MOVIES WHERE year = 2008").plan
        kinds = [n.kind for n in plan.walk()]
        assert kinds == ["project", "select", "relation"]

    def test_star_has_no_projection(self, compiler):
        plan = compiler.compile("SELECT * FROM MOVIES").plan
        assert isinstance(plan, Relation)

    def test_preferring_named(self, compiler):
        plan = compiler.compile("SELECT * FROM GENRES PREFERRING p1").plan
        assert isinstance(plan, Prefer)
        assert [p.name for p in plan.run] == ["p1"]

    def test_unknown_preference_rejected(self, compiler):
        with pytest.raises(ParseError, match="unknown preference"):
            compiler.compile("SELECT * FROM GENRES PREFERRING nope")

    def test_inline_preference_compiled(self, compiler):
        plan = compiler.compile(
            "SELECT * FROM GENRES PREFERRING (genre = 'Comedy') SCORE 0.8 CONFIDENCE 0.9"
        ).plan
        assert isinstance(plan, Prefer)
        (preference,) = plan.run
        assert preference.confidence == 0.9
        assert preference.relations == ("GENRES",)

    def test_inline_relations_inferred_from_attrs(self, compiler):
        plan = compiler.compile(
            "SELECT * FROM MOVIES NATURAL JOIN DIRECTORS "
            "PREFERRING (director = 'W. Allen') SCORE 0.9"
        ).plan
        (preference,) = plan.run
        assert preference.relations == ("DIRECTORS",)

    def test_score_filter_hoisted_above_prefers(self, compiler):
        plan = compiler.compile(
            "SELECT * FROM GENRES WHERE conf > 0.5 AND m_id > 1 PREFERRING p1"
        ).plan
        # Top: score select; below: prefer; below: ordinary select.
        assert isinstance(plan, Select)
        assert plan.condition.references_score()
        assert isinstance(plan.child, Prefer)
        assert isinstance(plan.child.child, Select)
        assert not plan.child.child.condition.references_score()

    def test_topk_on_top(self, compiler):
        plan = compiler.compile("SELECT title FROM MOVIES TOP 3 BY score").plan
        assert isinstance(plan, TopK)
        assert plan.k == 3

    def test_order_by_recorded(self, compiler):
        q = compiler.compile("SELECT title FROM MOVIES ORDER BY conf")
        assert q.order_by == "conf"

    def test_union_statement(self, compiler):
        plan = compiler.compile(
            "SELECT title FROM MOVIES UNION SELECT title FROM MOVIES"
        ).plan
        assert isinstance(plan, Union)

    def test_natural_join_condition_built(self, compiler):
        plan = compiler.compile("SELECT * FROM MOVIES NATURAL JOIN DIRECTORS").plan
        assert isinstance(plan, Join)
        assert plan.condition.attributes() == {"movies.d_id", "directors.d_id"}

    def test_alias_in_from(self, compiler, movie_db):
        plan = compiler.compile("SELECT M.title FROM MOVIES AS M WHERE M.year = 2008").plan
        schema = plan.schema(movie_db.catalog)
        assert schema.attribute_names == ("M.title",)

    def test_comma_join_is_cross(self, compiler):
        plan = compiler.compile(
            "SELECT * FROM DIRECTORS, GENRES WHERE DIRECTORS.d_id = 1"
        ).plan
        join = next(n for n in plan.walk() if isinstance(n, Join))
        from repro.engine.expressions import is_true

        assert is_true(join.condition)
