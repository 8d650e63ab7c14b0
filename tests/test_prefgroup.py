"""Unit tests for the preference dispatch index (repro.core.prefgroup)."""

import pytest

from repro.core.aggregates import F_MAX, F_S
from repro.core.preference import Preference
from repro.core.prefgroup import (
    CompiledGroup,
    PreferenceGroup,
    dispatch_probe,
)
from repro.core.scorepair import IDENTITY, ScorePair, bottom
from repro.core.scoring import ConstantScore, ExprScore
from repro.engine.expressions import (
    TRUE,
    And,
    Arithmetic,
    Attr,
    InList,
    Literal,
    Or,
    cmp,
    col,
    eq,
)
from repro.errors import PreferenceError
from repro.plan.builder import scan


def genres_schema(movie_db):
    return scan("GENRES").build().schema(movie_db.catalog)


def pref(name, condition, score=0.5, conf=0.8):
    return Preference(name, "GENRES", condition, ConstantScore(score), conf)


class TestDispatchProbe:
    def test_equality_is_probeable(self):
        assert dispatch_probe(eq("GENRES.genre", "Drama")) == (
            "GENRES.genre",
            ("Drama",),
            None,
        )

    def test_reversed_operands_probe_too(self):
        from repro.engine.expressions import Comparison, lit

        condition = Comparison("=", lit("Drama"), col("GENRES.genre"))
        assert dispatch_probe(condition) == ("GENRES.genre", ("Drama",), None)

    def test_in_list_probes_every_value(self):
        condition = InList(col("GENRES.genre"), ("Drama", "Comedy"))
        attr, values, residual = dispatch_probe(condition)
        assert attr == "GENRES.genre"
        assert set(values) == {"Drama", "Comedy"}
        assert residual is None

    def test_in_list_with_null_is_not_probeable(self):
        # IN (..., NULL) matches NULL rows; a hash probe keyed on the row
        # value cannot reproduce that, so the preference must stay residual.
        condition = InList(col("GENRES.genre"), ("Drama", None))
        assert dispatch_probe(condition) is None

    def test_equals_null_matches_nothing(self):
        from repro.engine.expressions import Comparison, lit

        condition = Comparison("=", col("GENRES.genre"), lit(None))
        assert dispatch_probe(condition) == ("GENRES.genre", (), None)

    def test_range_condition_is_not_probeable(self):
        assert dispatch_probe(cmp("GENRES.m_id", ">=", 2)) is None

    def test_residual_conjunct_is_kept(self):
        condition = And(eq("GENRES.genre", "Drama"), cmp("GENRES.m_id", ">=", 2))
        attr, values, residual = dispatch_probe(condition)
        assert (attr, values) == ("GENRES.genre", ("Drama",))
        assert residual is not None  # the range conjunct survives as residual


class TestCompiledGroup:
    def test_column_dispatch_residual_partition(self, movie_db):
        group = PreferenceGroup(
            [
                pref("a", eq("GENRES.genre", "Drama")),  # column, pre-filled
                pref("b", InList(col("GENRES.genre"), ("Comedy", "Action"))),
                pref("c", cmp("GENRES.m_id", ">=", 2)),  # column, lazy
                pref("d", And(eq("GENRES.genre", "Drama"), cmp("GENRES.m_id", ">=", 2))),
                pref("e", Or(eq("GENRES.genre", "Drama"), cmp("GENRES.m_id", ">=", 2))),
                pref("f", TRUE),
            ],
            F_S,
        )
        compiled = group.compile(genres_schema(movie_db))
        assert compiled.column_count == 3
        assert compiled.indexed_count == 1  # d: two columns, one equality
        assert compiled.residual_count == 2  # e: no top-level equality; f: none

    def test_dispatch_skips_non_matching_rows(self, movie_db):
        schema = genres_schema(movie_db)
        compiled = PreferenceGroup(
            [pref("a", eq("GENRES.genre", "Drama"))], F_S
        ).compile(schema)
        drama = (1, "Drama")
        comedy = (2, "Comedy")
        assert [i for i, _ in compiled.matches(drama)] == [0]
        assert compiled.matches(comedy) == []
        # The column table serves the whole group, so the Comedy row, which
        # it misses, is never keyed or probed; the Drama row's key is.
        assert compiled.stats.probes == 1
        assert compiled.stats.dispatch_hits == 1

    def test_null_row_value_never_matches_equality(self, movie_db):
        schema = genres_schema(movie_db)
        compiled = PreferenceGroup(
            [pref("a", eq("GENRES.genre", "Drama"))], F_S
        ).compile(schema)
        assert compiled.matches((1, None)) == []

    def test_residual_conjunct_filters_dispatch_hits(self, movie_db):
        schema = genres_schema(movie_db)
        condition = And(eq("GENRES.genre", "Drama"), cmp("GENRES.m_id", ">=", 2))
        compiled = PreferenceGroup([pref("a", condition)], F_S).compile(schema)
        assert compiled.indexed_count == 1
        assert compiled.matches((5, "Drama"))
        assert compiled.matches((1, "Drama")) == []
        assert compiled.stats.residual_checks == 2

    def test_matches_preserve_group_order(self, movie_db):
        schema = genres_schema(movie_db)
        compiled = PreferenceGroup(
            [
                pref("late", TRUE),  # residual, but index 0
                pref("early", eq("GENRES.genre", "Drama")),  # indexed, index 1
            ],
            F_S,
        ).compile(schema)
        assert [i for i, _ in compiled.matches((1, "Drama"))] == [0, 1]

    def test_memo_caches_repeated_projections(self, movie_db):
        schema = genres_schema(movie_db)
        compiled = PreferenceGroup(
            [pref("a", eq("GENRES.genre", "Drama"))], F_S
        ).compile(schema)
        rows = [(1, "Drama"), (2, "Drama"), (3, "Comedy"), (4, "Drama")]
        compiled.score_pairs(rows, [IDENTITY] * len(rows))
        # m_id is not preference-relevant, so rows 2 and 4 share row 1's key;
        # the Comedy row matches no table and is never keyed.
        assert compiled.stats.keys == 1
        assert compiled.stats.probes == 1

    def test_wide_groups_key_on_column_lists(self):
        from repro.engine.schema import Column, TableSchema
        from repro.engine.types import DataType

        width = 9
        schema = TableSchema(
            "W", [Column(f"a{i}", DataType.INT, "W") for i in range(width)]
        )
        preferences = [
            Preference(f"p{i}", "W", cmp(f"W.a{i}", ">=", 1), ConstantScore(0.5), 0.5)
            for i in range(width)
        ]
        compiled = PreferenceGroup(preferences, F_S).compile(schema)
        assert compiled.column_count == width
        rows = [tuple(range(width)), tuple(range(1, width + 1)), tuple(range(width))]
        pairs = compiled.score_pairs(rows, [IDENTITY] * len(rows))
        assert pairs == sequential_pairs(schema, rows, preferences)
        # A key is one list identity per column: the third row repeats the
        # first, and every column evaluates each distinct value once.
        assert compiled.stats.keys == 2
        assert compiled.stats.residual_checks == 2 * width
        assert len(compiled.matches(tuple(range(1, width + 1)))) == width

    def test_attribute_free_group_memoizes_trivially(self, movie_db):
        schema = genres_schema(movie_db)
        compiled = PreferenceGroup([pref("a", TRUE), pref("b", TRUE)], F_S).compile(
            schema
        )
        rows = [(1, "Drama"), (2, "Comedy")]
        compiled.score_pairs(rows, [IDENTITY] * len(rows))
        # Every row projects to the empty tuple: one key, computed once.
        assert compiled.stats.keys == 1
        assert compiled.stats.residual_checks == 2

    def test_empty_group_rejected(self):
        with pytest.raises(PreferenceError):
            PreferenceGroup([], F_S)

    def test_unlawful_aggregate_rejected(self):
        class Broken:
            name = "broken"
            identity = IDENTITY

            def combine(self, a, b):  # not commutative, no identity
                return ScorePair(1.0, 1.0)

        with pytest.raises(PreferenceError):
            PreferenceGroup([pref("a", TRUE)], Broken())


class TestScoreRows:
    def test_default_pairs_are_popped(self, movie_db):
        schema = genres_schema(movie_db)
        # Scoring to ⟨0, conf⟩ via F_MAX over a base of IDENTITY keeps the
        # pair non-default, so craft a base entry that collapses instead.
        compiled = PreferenceGroup([pref("a", eq("GENRES.genre", "Drama"))], F_S).compile(
            schema
        )
        rows = [(1, "Drama")]
        scores = compiled.score_rows(rows, lambda r: (r[0],), None)
        assert (1,) in scores
        assert not scores[(1,)].is_default

    def test_rows_sharing_a_key_fold_in_sequential_order(self, movie_db):
        from repro.pexec.scorerel import Intermediate
        from tests.test_batchscore import sequential_score_relation

        schema = genres_schema(movie_db)
        preferences = [
            pref("a", eq("GENRES.genre", "Drama"), score=0.3, conf=0.9),
            pref("b", cmp("GENRES.m_id", ">=", 0), score=0.7, conf=0.4),
        ]
        rows = [(1, "Drama"), (2, "Drama"), (3, "Comedy")]
        # Key on genre so several rows share one score-relation key.
        inter = Intermediate(schema, rows, ["GENRES.genre"], {})
        sequential = sequential_score_relation(inter, preferences, F_S)
        compiled = PreferenceGroup(preferences, F_S).compile(schema)
        fused = compiled.score_rows(rows, inter.key_fn(), inter.scores)
        assert fused == sequential

    def test_score_pairs_matches_sequential_for_fmax(self, movie_db):
        from repro.core.prefer import prefer
        from repro.core.prelation import PRelation

        schema = genres_schema(movie_db)
        preferences = [
            pref("a", eq("GENRES.genre", "Drama"), score=0.3, conf=0.9),
            pref("b", TRUE, score=0.7, conf=0.4),
        ]
        rows = [(1, "Drama"), (2, "Comedy")]
        relation = PRelation(schema, rows)
        sequential = relation
        for preference in preferences:
            sequential = prefer(sequential, preference, F_MAX)
        compiled = PreferenceGroup(preferences, F_MAX).compile(schema)
        assert compiled.score_pairs(rows, relation.pairs) == sequential.pairs


def sequential_pairs(schema, rows, preferences, aggregate=F_S, pairs=None):
    from repro.core.prefer import prefer
    from repro.core.prelation import PRelation

    relation = PRelation(schema, rows, pairs)
    for preference in preferences:
        relation = prefer(relation, preference, aggregate)
    return relation.pairs


class TestColumnTables:
    def test_condition_runs_once_per_distinct_value(self, movie_db):
        schema = genres_schema(movie_db)
        preferences = [
            pref("ids", cmp("GENRES.m_id", ">=", 2)),
            pref("genres", InList(col("GENRES.genre"), ("Drama", None))),
        ]
        compiled = PreferenceGroup(preferences, F_S).compile(schema)
        assert compiled.column_count == 2
        rows = [(m, g) for m in (1, 2) for g in ("Drama", "Comedy")] * 3
        pairs = compiled.score_pairs(rows, [IDENTITY] * len(rows))
        assert pairs == sequential_pairs(schema, rows, preferences)
        # Three (m_id, genre) combinations match something and give three
        # keys, but each column has two distinct values: 2 + 2 evaluations,
        # not 4 × 2.
        assert compiled.stats.keys == 3
        assert compiled.stats.residual_checks == 4

    def test_null_cell_in_a_table_served_column(self, movie_db):
        schema = genres_schema(movie_db)
        preferences = [
            pref("in-null", InList(col("GENRES.genre"), ("Drama", None)), 0.3, 0.6),
            pref("eq", eq("GENRES.genre", "Drama"), 0.4, 0.7),
            Preference(
                "by-id",
                "GENRES",
                TRUE,
                ExprScore(Arithmetic("*", Literal(0.1), Attr("GENRES.m_id"))),
                0.9,
            ),
        ]
        compiled = PreferenceGroup(preferences, F_S).compile(schema)
        assert compiled.column_count == 3
        # IN (…, NULL) matches a NULL genre, equality never does; a NULL
        # m_id scores ⊥ with the preference's confidence.
        assert compiled.matches((None, None)) == [
            (0, ScorePair(0.3, 0.6)),
            (2, bottom(0.9)),
        ]
        rows = [(None, None), (1, None), (None, "Drama"), (3, "Comedy")]
        pairs = compiled.score_pairs(rows, [IDENTITY] * len(rows))
        assert pairs == sequential_pairs(schema, rows, preferences)

    def test_near_unique_column_evaluates_each_value_once(self, movie_db):
        schema = genres_schema(movie_db)
        compiled = PreferenceGroup(
            [pref("ids", cmp("GENRES.m_id", ">=", 0))], F_S
        ).compile(schema)
        distinct = 600
        rows = [(m_id, "Drama") for m_id in range(distinct)] + [(0, "Drama"), (7, "Comedy")]
        pairs = compiled.score_pairs(rows, [IDENTITY] * len(rows))
        assert pairs == [ScorePair(0.5, 0.8)] * len(rows)
        assert pairs == sequential_pairs(schema, rows, compiled.group.preferences)
        # Near-unique values stay cached: the repeated ids are not evaluated
        # again, and each id's match list is its own key.
        assert compiled.stats.residual_checks == distinct
        assert compiled.stats.keys == distinct

    def test_group_order_when_sources_interleave(self, movie_db):
        schema = genres_schema(movie_db)
        preferences = [
            pref("residual", TRUE, 0.1, 0.5),
            pref("lazy-genre", InList(col("GENRES.genre"), ("Drama", None)), 0.15, 0.55),
            pref("column", eq("GENRES.genre", "Drama"), 0.2, 0.6),
            pref(
                "dispatch",
                And(eq("GENRES.genre", "Drama"), cmp("GENRES.m_id", ">=", 0)),
                0.3,
                0.7,
            ),
            pref("lazy-column", cmp("GENRES.m_id", ">=", 1), 0.4, 0.8),
            pref(
                "residual-or",
                Or(eq("GENRES.genre", "Drama"), cmp("GENRES.m_id", ">=", 5)),
                0.5,
                0.9,
            ),
            pref("in-column", InList(col("GENRES.genre"), ("Drama", "Comedy")), 0.6, 1.0),
        ]
        compiled = PreferenceGroup(preferences, F_MAX).compile(schema)
        assert (compiled.column_count, compiled.indexed_count, compiled.residual_count) == (
            4,
            1,
            2,
        )
        assert [i for i, _ in compiled.matches((1, "Drama"))] == [0, 1, 2, 3, 4, 5, 6]
        rows = [(1, "Drama"), (0, "Comedy"), (7, None), (1, "Drama")]
        pairs = compiled.score_pairs(rows, [IDENTITY] * len(rows))
        assert pairs == sequential_pairs(schema, rows, preferences, F_MAX)


class TestFoldCache:
    def test_score_pairs_folds_each_match_list_once(self, movie_db):
        schema = genres_schema(movie_db)
        preferences = [
            pref("a", eq("GENRES.genre", "Drama"), 0.3, 0.9),
            pref("b", TRUE, 0.7, 0.4),
        ]
        compiled = PreferenceGroup(preferences, F_S).compile(schema)
        rows = [(m_id, "Drama") for m_id in range(4)]
        other = ScorePair(0.2, 0.5)
        inputs = [IDENTITY, IDENTITY, other, IDENTITY]
        pairs = compiled.score_pairs(rows, inputs)
        assert pairs == sequential_pairs(schema, rows, preferences, F_S, inputs)
        # One match list, folded once per distinct input pair object:
        # IDENTITY and `other`.
        assert compiled.stats.matches == 8
        assert compiled.stats.fused_combines == 4

    def test_score_rows_folds_once_for_unique_keys_only(self, movie_db):
        schema = genres_schema(movie_db)
        preferences = [
            pref("a", eq("GENRES.genre", "Drama"), 0.3, 0.9),
            pref("b", TRUE, 0.7, 0.4),
        ]
        compiled = PreferenceGroup(preferences, F_S).compile(schema)
        rows = [(1, "Drama"), (2, "Drama"), (3, "Drama"), (3, "Drama")]
        base = {(2,): ScorePair(0.1, 0.2)}
        scores = compiled.score_rows(rows, lambda r: (r[0],), base)
        # Key 1 folds the shared list once (1 combine); key 2 starts from its
        # base pair (2); key 3 has two rows, replayed in order (3).
        assert compiled.stats.fused_combines == 6
        assert compiled.stats.matches == 8
        assert set(scores) == {(1,), (2,), (3,)}
        assert base == {(2,): ScorePair(0.1, 0.2)}  # not mutated
