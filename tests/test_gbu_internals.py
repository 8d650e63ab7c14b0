"""White-box tests for GBU's deferral machinery."""

import pytest

from repro.core.preference import Preference
from repro.engine.expressions import cmp, eq
from repro.pexec.group_bottom_up import _Evaluator
from repro.pexec.reference import evaluate_reference
from repro.pexec.scorerel import Intermediate
from repro.core.aggregates import F_S
from repro.plan.builder import scan
from repro.plan.analysis import qualify_preferences

from tests.conformance import assert_identical


def run_gbu_evaluator(db, plan):
    evaluator = _Evaluator(db, F_S)
    deferred = evaluator.evaluate(plan)
    result = evaluator.force(deferred)
    return evaluator, result


class TestEmbeddedRegistry:
    def test_entries_consumed_by_force(self, movie_db, example_preferences):
        """Alg. 2 removes executed operators from G — and stale id() entries
        would risk colliding with later allocations (regression test)."""
        plan = qualify_preferences(
            (
                scan("MOVIES")
                .natural_join(scan("GENRES").prefer(example_preferences["p1"]), movie_db.catalog)
                .natural_join(
                    scan("DIRECTORS").prefer(example_preferences["p2"]), movie_db.catalog
                )
                .build()
            ),
            movie_db.catalog,
        )
        evaluator, result = run_gbu_evaluator(movie_db, plan)
        assert evaluator.embedded == {}
        assert result.rows is not None

    def test_score_select_forces_consumption(self, movie_db, example_preferences):
        plan = qualify_preferences(
            (
                scan("GENRES")
                .prefer(example_preferences["p1"])
                .select(cmp("conf", ">", 0.5))
                .build()
            ),
            movie_db.catalog,
        )
        evaluator, result = run_gbu_evaluator(movie_db, plan)
        assert evaluator.embedded == {}
        assert len(result.rows) == 2


class TestLazyPreferBlocks:
    def test_prefer_over_pure_block_stays_lazy(self, movie_db, example_preferences):
        plan = qualify_preferences(
            scan("GENRES").select(eq("m_id", 4)).prefer(example_preferences["p1"]).build(),
            movie_db.catalog,
        )
        evaluator = _Evaluator(movie_db, F_S)
        value = evaluator.evaluate(plan)
        assert isinstance(value, Intermediate)
        assert value.rows is None          # nothing materialized yet
        assert value.source is not None
        assert value.scores                # but the score relation exists

    def test_prefer_chain_shares_one_block(self, movie_db, example_preferences):
        drama = Preference("drama", "GENRES", eq("genre", "Drama"), 0.4, 0.5)
        plan = qualify_preferences(
            scan("GENRES").prefer(example_preferences["p1"]).prefer(drama).build(),
            movie_db.catalog,
        )
        evaluator = _Evaluator(movie_db, F_S)
        value = evaluator.evaluate(plan)
        assert isinstance(value, Intermediate)
        # Fused batch scoring runs the chain's block once and keeps its rows
        # (a later force() is then free); both preferences share that pass.
        assert value.rows is not None
        assert value.source is not None
        # Both preferences' entries accumulated into the same score relation.
        assert len(value.scores) == 6
        # And the pairs agree exactly with the reference evaluator's.
        assert_identical(
            evaluate_reference(plan, movie_db.catalog),
            value.to_prelation(),
            labels=("reference", "gbu"),
        )

    def test_forcing_lazy_materializes(self, movie_db, example_preferences):
        plan = qualify_preferences(
            scan("GENRES").prefer(example_preferences["p1"]).build(), movie_db.catalog
        )
        evaluator = _Evaluator(movie_db, F_S)
        value = evaluator.evaluate(plan)
        forced = evaluator.force(value)
        assert forced.rows is not None
        assert len(forced.rows) == 6
        assert forced.scores == value.scores


class TestBlockKeyAttrs:
    def test_leaf_primary_keys(self, movie_db, example_preferences):
        evaluator = _Evaluator(movie_db, F_S)
        block = scan("GENRES").select(eq("genre", "Drama")).build()
        key_attrs = evaluator._block_key_attrs(block, block.schema(movie_db.catalog))
        assert key_attrs == ["GENRES.m_id", "GENRES.genre"]

    def test_join_block_concatenates_keys(self, movie_db):
        block = (
            scan("MOVIES").natural_join(scan("DIRECTORS"), movie_db.catalog).build()
        )
        evaluator = _Evaluator(movie_db, F_S)
        key_attrs = evaluator._block_key_attrs(block, block.schema(movie_db.catalog))
        assert set(key_attrs) == {"MOVIES.m_id", "DIRECTORS.d_id"}

    def test_missing_keys_fall_back_to_full_row(self, movie_db):
        block = scan("MOVIES").project(["title"]).build()
        evaluator = _Evaluator(movie_db, F_S)
        key_attrs = evaluator._block_key_attrs(block, block.schema(movie_db.catalog))
        assert key_attrs == ["MOVIES.title"]

    def test_set_operation_keys_by_full_row(self, movie_db):
        # MOVIES.m_id resolves in the output by name, but the right side's
        # rows hold their year there: the block is keyed by its full row,
        # as BU keys a set operation's result.
        block = (
            scan("MOVIES")
            .project(["year", "m_id"])
            .union(scan("MOVIES").project(["m_id", "year"]))
            .build()
        )
        evaluator = _Evaluator(movie_db, F_S)
        key_attrs = evaluator._block_key_attrs(block, block.schema(movie_db.catalog))
        assert key_attrs == ["MOVIES.year", "MOVIES.m_id"]
