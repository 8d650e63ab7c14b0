"""Unit tests for filtering preferred tuples (Section V flavours)."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prelation import PRelation
from repro.core.preference import Preference
from repro.core.scorepair import IDENTITY, ScorePair
from repro.engine.expressions import cmp, eq
from repro.engine.schema import make_schema
from repro.engine.types import DataType
from repro.errors import ExecutionError
from repro.filtering import (
    conf_at_least,
    matched_any,
    ranked,
    satisfies_at_least,
    score_at_least,
    skyline,
    skyline_pairs,
    topk,
)
from repro.filtering.topk import canonical_column_order, rank_key
from repro.pexec.scorerel import Intermediate, apply_topk
from tests.conftest import examples

SCHEMA = make_schema(
    "R",
    [("id", DataType.INT), ("x", DataType.INT), ("y", DataType.INT)],
    primary_key=["id"],
)


def rel(entries):
    rows = [e[0] for e in entries]
    pairs = [ScorePair(e[1], e[2]) for e in entries]
    return PRelation(SCHEMA, rows, pairs)


@pytest.fixture
def sample():
    return rel(
        [
            ((1, 10, 1), 0.9, 0.5),
            ((2, 20, 2), 0.7, 0.9),
            ((3, 30, 3), None, 0.0),
            ((4, 40, 4), 0.7, 0.3),
            ((5, 50, 5), 0.2, 1.5),
        ]
    )


class TestTopK:
    def test_by_score(self, sample):
        out = topk(sample, 2, by="score")
        assert [r[0] for r in out.rows] == [1, 2]

    def test_by_conf(self, sample):
        out = topk(sample, 2, by="conf")
        assert [r[0] for r in out.rows] == [5, 2]

    def test_bottom_ranks_last(self, sample):
        out = topk(sample, 5, by="score")
        assert out.rows[-1][0] == 3

    def test_k_larger_than_input(self, sample):
        assert len(topk(sample, 100)) == 5

    def test_deterministic_tie_break(self):
        tied = rel([((2, 9, 9), 0.5, 0.5), ((1, 9, 9), 0.5, 0.5)])
        out = topk(tied, 1)
        assert out.rows[0][0] == 1  # smaller id wins the tie

    def test_tie_break_is_column_order_invariant(self):
        """Permuting columns must not change who survives the cut."""
        a = rel([((1, 7, 100), 0.5, 0.5), ((2, 3, 1), 0.5, 0.5)])
        permuted_schema = SCHEMA.project(["y", "x", "id"])
        b = PRelation(
            permuted_schema,
            [(100, 7, 1), (1, 3, 2)],
            [ScorePair(0.5, 0.5), ScorePair(0.5, 0.5)],
        )
        kept_a = topk(a, 1).rows[0][0]        # id column is first
        kept_b = topk(b, 1).rows[0][2]        # id column is last
        assert kept_a == kept_b

    def test_invalid_arguments(self, sample):
        with pytest.raises(ExecutionError):
            topk(sample, 0)
        with pytest.raises(ExecutionError):
            topk(sample, 3, by="id")


# Few distinct values, so the k-th value is usually tied; ⊥; pairs closer
# than the 1e-9 ranking quantum (0.5 ± 1e-12, 0.5 + 4e-10) beside one just
# past it (0.5 + 2e-9); NULL cells for the tie-break.
_SCORES = st.sampled_from(
    [None, 0.2, 0.5, 0.5 + 1e-12, 0.5 - 1e-12, 0.5 + 4e-10, 0.5 + 2e-9, 0.7, 1.9]
)
_CONFS = st.sampled_from([0.0, 0.3, 0.3 + 1e-12, 0.9, 1.5])
_CELLS = st.one_of(st.none(), st.integers(0, 3))
_ENTRIES = st.lists(
    st.tuples(st.tuples(_CELLS, _CELLS, _CELLS), _SCORES, _CONFS), max_size=40
)


def _spec_topk(relation, k, by):
    """The specification: the whole relation sorted by ``rank_key``, cut at k."""
    order = canonical_column_order(relation.schema)
    kept = sorted(
        zip(relation.rows, relation.pairs),
        key=lambda entry: rank_key(entry[0], entry[1], by, order),
    )[:k]
    return [row for row, _ in kept], [pair for _, pair in kept]


class TestTopKMatchesSpec:
    @settings(max_examples=examples(400), deadline=None)
    @given(
        entries=_ENTRIES,
        k=st.integers(1, 45),
        by=st.sampled_from(["score", "conf"]),
        permutation=st.permutations([0, 1, 2]),
    )
    def test_topk_is_sorted_prefix(self, entries, k, by, permutation):
        relation = rel(entries)
        permuted = PRelation(
            SCHEMA.project([SCHEMA.columns[i].name for i in permutation]),
            [tuple(row[i] for i in permutation) for row in relation.rows],
            relation.pairs,
        )
        for candidate in (relation, permuted):
            out = topk(candidate, k, by)
            assert (out.rows, out.pairs) == _spec_topk(candidate, k, by)
        assert topk(permuted, k, by).rows == [
            tuple(row[i] for i in permutation) for row in topk(relation, k, by).rows
        ]

    def test_boundary_group_is_tie_broken_by_row(self):
        entries = [((i, 0, 0), 0.5, 0.5) for i in (5, 3, 4)] + [((9, 0, 0), 0.9, 0.5)]
        out = topk(rel(entries), 2)
        assert [row[0] for row in out.rows] == [9, 3]


#: A covered row's pair: never the default ⟨⊥, 0⟩, but ⟨s, 0⟩, ⟨⊥, c⟩
#: and confidences that round to 0 at the ranking quantum.
_COVERED = st.one_of(
    st.builds(
        ScorePair,
        st.sampled_from([0.2, 0.5, 0.5 + 1e-12, 0.7, 1.9]),
        st.sampled_from([0.0, 1e-12, 0.3, 0.9]),
    ),
    st.builds(ScorePair, st.none(), st.sampled_from([1e-12, 0.3, 0.9])),
)


def _sparse(rows, pairs):
    """An intermediate keyed by the whole row that records its covered rows."""
    scores = {row: pair for row, pair in zip(rows, pairs) if pair != IDENTITY}
    covered = [i for i, pair in enumerate(pairs) if pair != IDENTITY]
    key_attrs = [column.qualified_name for column in SCHEMA.columns]
    return Intermediate(SCHEMA, rows, key_attrs, scores, pairs=pairs, covered=covered)


class TestSparseTopK:
    """``apply_topk`` ranks only the covered rows when k of them rank above
    ⟨⊥, 0⟩; it must cut exactly what ``topk`` cuts from every row."""

    @settings(max_examples=examples(400), deadline=None)
    @given(
        rows=st.lists(st.tuples(_CELLS, _CELLS, _CELLS), unique=True, max_size=40),
        data=st.data(),
        k=st.integers(1, 45),
        by=st.sampled_from(["score", "conf"]),
    )
    def test_sparse_cut_equals_full_cut(self, rows, data, k, by):
        pairs = [data.draw(st.one_of(st.just(IDENTITY), _COVERED)) for _ in rows]
        out = apply_topk(_sparse(rows, pairs), k, by)
        expected = topk(PRelation(SCHEMA, rows, pairs), k, by)
        assert out.rows == expected.rows
        assert out.to_prelation().pairs == expected.pairs

    def _ranked_sizes(self, monkeypatch):
        sizes = []
        module = importlib.import_module("repro.filtering.topk")

        def spy(relation, k, by="score"):
            sizes.append(len(relation))
            return topk(relation, k, by)

        monkeypatch.setattr(module, "topk", spy)
        return sizes

    def test_k_known_scores_rank_only_the_covered_rows(self, monkeypatch):
        sizes = self._ranked_sizes(monkeypatch)
        rows = [(i, 0, 0) for i in range(6)]
        pairs = [IDENTITY, ScorePair(0.5, 0.0), IDENTITY, ScorePair(0.7, 0.2), IDENTITY, IDENTITY]
        out = apply_topk(_sparse(rows, pairs), 2, "score")
        assert [row[0] for row in out.rows] == [3, 1]
        assert sizes == [2]

    def test_a_zero_confidence_tie_ranks_every_row(self, monkeypatch):
        # By conf an uncovered row's 0.0 ties a covered ⟨s, 0⟩ row, and the
        # row tie-break puts (0, 0, 0) first: ranking only covered rows
        # would cut (1, 0, 0).
        sizes = self._ranked_sizes(monkeypatch)
        rows = [(0, 0, 0), (1, 0, 0)]
        out = apply_topk(_sparse(rows, [IDENTITY, ScorePair(0.9, 0.0)]), 1, "conf")
        assert out.rows == [(0, 0, 0)]
        assert sizes == [2]


class TestRanked:
    def test_full_ordering(self, sample):
        out = ranked(sample, by="score")
        assert [r[0] for r in out.rows] == [1, 2, 4, 5, 3]

    def test_size_preserved(self, sample):
        assert len(ranked(sample, "conf")) == 5

    def test_invalid_key(self, sample):
        with pytest.raises(ExecutionError):
            ranked(sample, "x")


class TestThresholds:
    def test_score_at_least(self, sample):
        out = score_at_least(sample, 0.7)
        assert {r[0] for r in out.rows} == {1, 2, 4}

    def test_bottom_fails_score_threshold(self, sample):
        out = score_at_least(sample, 0.0)
        assert 3 not in {r[0] for r in out.rows}

    def test_conf_at_least(self, sample):
        out = conf_at_least(sample, 0.9)
        assert {r[0] for r in out.rows} == {2, 5}

    def test_matched_any(self, sample):
        out = matched_any(sample)
        assert {r[0] for r in out.rows} == {1, 2, 4, 5}


class TestSatisfiesAtLeast:
    def test_counts_preferences(self, sample):
        prefs = [
            Preference("a", "R", cmp("x", ">=", 20), 0.5, 0.5),
            Preference("b", "R", cmp("y", ">=", 4), 0.5, 0.5),
        ]
        out = satisfies_at_least(sample, prefs, 2)
        assert {r[0] for r in out.rows} == {4, 5}
        out1 = satisfies_at_least(sample, prefs, 1)
        assert {r[0] for r in out1.rows} == {2, 3, 4, 5}

    def test_foreign_preferences_ignored(self, sample):
        prefs = [Preference("c", "S", eq("unknown_attr", 1), 0.5, 0.5)]
        out = satisfies_at_least(sample, prefs, 1)
        assert len(out) == 0


class TestSkyline:
    def test_pair_skyline(self, sample):
        out = skyline_pairs(sample)
        # ⟨0.9,0.5⟩, ⟨0.7,0.9⟩ and ⟨0.2,1.5⟩ are mutually incomparable;
        # ⟨0.7,0.3⟩ is dominated by ⟨0.7,0.9⟩, ⟨⊥,0⟩ by everything.
        assert {r[0] for r in out.rows} == {1, 2, 5}

    def test_attribute_skyline(self):
        data = rel(
            [
                ((1, 5, 5), None, 0.0),
                ((2, 3, 9), None, 0.0),
                ((3, 2, 2), None, 0.0),   # dominated by (5,5)
                ((4, 9, 1), None, 0.0),
            ]
        )
        out = skyline(data, ["x", "y"])
        assert {r[0] for r in out.rows} == {1, 2, 4}

    def test_skyline_nulls_dropped(self):
        data = rel([((1, 5, 5), None, 0.0), ((2, None, 9), None, 0.0)])
        out = skyline(data, ["x", "y"])
        assert {r[0] for r in out.rows} == {1}

    def test_skyline_requires_dimensions(self, sample):
        with pytest.raises(ExecutionError):
            skyline(sample, [])

    def test_equal_points_both_survive(self):
        data = rel([((1, 5, 5), None, 0.0), ((2, 5, 5), None, 0.0)])
        out = skyline(data, ["x", "y"])
        assert len(out) == 2
