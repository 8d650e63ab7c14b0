"""Unit tests for the physical score-relation machinery (Intermediate)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import F_MAX, F_S, AggregateFunction
from repro.core.preference import Preference
from repro.core.prefgroup import PreferenceGroup
from repro.core.scorepair import IDENTITY, ScorePair, bottom
from repro.engine.blockmemo import Block, Probe, RangeFamily
from repro.engine.expressions import TRUE, cmp, eq
from repro.engine.iosim import CostModel
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.errors import ExecutionError
from repro.pexec import scorerel
from repro.pexec.batchscore import apply_prefer_group, group_scores_from_rows
from repro.pexec.scorerel import Intermediate
from tests.conftest import examples


@pytest.fixture
def movies_inter(movie_db):
    return Intermediate.from_table(movie_db.table("MOVIES"))


@pytest.fixture
def directors_inter(movie_db):
    inter = Intermediate.from_table(movie_db.table("DIRECTORS"))
    inter.scores[(1,)] = ScorePair(0.8, 1.0)
    inter.scores[(2,)] = ScorePair(0.9, 0.9)
    return inter


class TestIntermediate:
    def test_from_table_keys_on_pk(self, movies_inter):
        assert movies_inter.key_attrs == ("MOVIES.m_id",)
        assert movies_inter.key_fn()((7, "T", 2000, 100, 1)) == (7,)

    def test_from_rows_defaults_to_full_row(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        inter = Intermediate.from_rows(schema, [(1, "A")])
        assert len(inter.key_attrs) == 2

    def test_key_attr_must_exist(self, movie_db):
        schema = movie_db.table("DIRECTORS").schema
        with pytest.raises(ExecutionError, match="widened"):
            Intermediate(schema, [], ["missing_key"])

    def test_to_prelation(self, directors_inter):
        prel = directors_inter.to_prelation()
        assert len(prel) == 3
        assert prel.pairs[0] == ScorePair(0.8, 1.0)
        assert prel.pairs[2] == IDENTITY


class TestApplyPrefer:
    """The prefer operator on an intermediate, through the compiled group."""

    def test_inserts_and_updates(self, movies_inter):
        p = Preference("p", "MOVIES", cmp("year", ">", 2005), 0.5, 0.6)
        out = apply_prefer_group(movies_inter, [p], F_S)
        assert len(out.scores) == 3  # 2008, 2010, 2006
        again = apply_prefer_group(out, [p], F_S)
        assert again.scores[(1,)].conf == pytest.approx(1.2)

    def test_sparse_storage_invariant(self, movies_inter):
        """Only non-default pairs are stored: |R_P| ≤ |R| (§VI)."""
        p = Preference("p", "MOVIES", eq("m_id", 1), 1.0, 1.0)
        out = apply_prefer_group(movies_inter, [p], F_S)
        assert len(out.scores) == 1
        assert len(out.rows) == 5

    def test_input_not_mutated(self, movies_inter):
        p = Preference("p", "MOVIES", TRUE, 0.5, 0.5)
        apply_prefer_group(movies_inter, [p], F_S)
        assert movies_inter.scores == {}

    def test_apply_prefer_to_rows_equivalent(self, movies_inter, movie_db):
        """Scoring only the rows σ_φ returned equals the full pass."""
        p = Preference("p", "MOVIES", cmp("year", ">", 2005), 0.5, 0.6)
        full = apply_prefer_group(movies_inter, [p], F_S)
        qualifying = [r for r in movie_db.table("MOVIES").rows if r[2] > 2005]
        compiled = PreferenceGroup([p], F_S).compile(movies_inter.schema)
        via_rows = group_scores_from_rows(
            movies_inter.schema, qualifying, movies_inter.key_attrs, compiled
        )
        assert full.scores == via_rows


class TestFilterAndProject:
    def test_filter_rows_prunes_scores(self, directors_inter):
        out = scorerel.filter_rows(directors_inter, [(1, "C. Eastwood")])
        assert len(out.rows) == 1
        assert set(out.scores) == {(1,)}

    def test_project_keeps_keys(self, directors_inter, movie_db):
        schema = movie_db.table("DIRECTORS").schema.project(["d_id"])
        out = scorerel.project_rows(
            directors_inter, schema, ["d_id"], [(1,), (2,), (3,)]
        )
        assert out.key_attrs == ("DIRECTORS.d_id",)
        assert out.scores == directors_inter.scores

    def test_project_dropping_keys_rejected(self, directors_inter, movie_db):
        schema = movie_db.table("DIRECTORS").schema.project(["director"])
        with pytest.raises(ExecutionError, match="widen"):
            scorerel.project_rows(
                directors_inter, schema, ["director"], [("A",)]
            )


class TestCombineJoin:
    def test_composite_keys_and_pairs(self, movies_inter, directors_inter, movie_db):
        movies_schema = movie_db.table("MOVIES").schema
        directors_schema = movie_db.table("DIRECTORS").schema
        out_schema = movies_schema.join(directors_schema)
        rows = [
            m + d
            for m in movie_db.table("MOVIES").rows
            for d in movie_db.table("DIRECTORS").rows
            if m[4] == d[0]
        ]
        out = scorerel.combine_join(movies_inter, directors_inter, out_schema, rows)
        assert out.key_attrs == ("MOVIES.m_id", "DIRECTORS.d_id")
        assert out.scores[(1, 1)] == ScorePair(0.8, 1.0)
        assert (2, 3) not in out.scores  # Stone has no pair

    def test_empty_score_relations_short_circuit(self, movies_inter, movie_db):
        other = Intermediate.from_table(movie_db.table("DIRECTORS"))
        out_schema = movie_db.table("MOVIES").schema.join(
            movie_db.table("DIRECTORS").schema
        )
        out = scorerel.combine_join(movies_inter, other, out_schema, [])
        assert out.scores == {}


class TestCombineSetop:
    def _inter(self, movie_db, rows, scores):
        schema = movie_db.table("DIRECTORS").schema
        inter = Intermediate.from_rows(schema, rows)
        inter.scores.update(scores)
        return inter

    def test_union_combines_common_rows(self, movie_db):
        a = self._inter(movie_db, [(1, "A"), (2, "B")], {(1, "A"): ScorePair(0.8, 1.0)})
        b = self._inter(movie_db, [(1, "A")], {(1, "A"): ScorePair(0.4, 1.0)})
        rows = [(1, "A"), (2, "B")]
        out = scorerel.combine_setop("union", a, b, rows)
        assert out.scores[(1, "A")].score == pytest.approx(0.6)
        assert (2, "B") not in out.scores

    def test_intersect(self, movie_db):
        a = self._inter(movie_db, [(1, "A")], {(1, "A"): ScorePair(0.8, 1.0)})
        b = self._inter(movie_db, [(1, "A")], {})
        out = scorerel.combine_setop("intersect", a, b, [(1, "A")])
        assert out.scores[(1, "A")] == ScorePair(0.8, 1.0)

    def test_difference_keeps_left(self, movie_db):
        a = self._inter(movie_db, [(1, "A"), (2, "B")], {(2, "B"): ScorePair(0.3, 0.3)})
        b = self._inter(movie_db, [(1, "A")], {(1, "A"): ScorePair(0.9, 0.9)})
        out = scorerel.combine_setop("difference", a, b, [(2, "B")])
        assert out.scores[(2, "B")] == ScorePair(0.3, 0.3)


class TestScoreSelectAndTopK:
    def test_score_select(self, directors_inter):
        out = scorerel.apply_score_select(directors_inter, cmp("conf", ">=", 0.95))
        assert [r[0] for r in out.rows] == [1]

    def test_topk(self, directors_inter):
        out = scorerel.apply_topk(directors_inter, 1, "score")
        assert [r[0] for r in out.rows] == [2]  # Allen: highest score 0.9


class TestMergeEmbedded:
    def test_pairs_resolved_by_name(self, movies_inter, directors_inter, movie_db):
        out_schema = movie_db.table("MOVIES").schema.join(
            movie_db.table("DIRECTORS").schema
        )
        rows = [
            m + d
            for m in movie_db.table("MOVIES").rows
            for d in movie_db.table("DIRECTORS").rows
            if m[4] == d[0]
        ]
        out = scorerel.merge_embedded(
            out_schema, rows, [directors_inter], ["MOVIES.m_id"]
        )
        assert "MOVIES.m_id" in out.key_attrs
        key = out.key_fn()(rows[0])
        assert out.scores  # Eastwood/Allen pairs survived
        # Every scored entry corresponds to an Eastwood or Allen movie.
        d_id_pos = out_schema.index_of("DIRECTORS.d_id")
        scored_rows = [r for r in rows if out.key_fn()(r) in out.scores]
        assert all(r[d_id_pos] in (1, 2) for r in scored_rows)

    def test_no_embedded_means_empty_scores(self, movie_db):
        schema = movie_db.table("MOVIES").schema
        out = scorerel.merge_embedded(schema, list(movie_db.table("MOVIES").rows), [], ["MOVIES.m_id"])
        assert out.scores == {}
        assert out.key_attrs == ("MOVIES.m_id",)


# ---------------------------------------------------------------------------
# Property: the block merge equals a per-row fold of every lookup's pair
# ---------------------------------------------------------------------------


class ModularBottom(AggregateFunction):
    """F_S, except that ⊥ confidences add modulo 3: ⟨⊥,1⟩ and ⟨⊥,2⟩ fold
    to the default ⟨⊥,0⟩, so covered rows can end with no pair at all."""

    name = "F_mod3"

    def combine(self, a: ScorePair, b: ScorePair) -> ScorePair:
        if a.is_bottom and b.is_bottom:
            return bottom((a.conf + b.conf) % 3.0)
        return F_S.combine(a, b)


CELLS = st.integers(0, 3)
#: Non-default pairs only, as a score relation holds: known scores (some
#: with zero confidence), and ⊥ pairs that fold to ⟨⊥,0⟩ under F_mod3.
MERGE_PAIRS = st.one_of(
    st.builds(
        ScorePair,
        st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]),
        st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    ),
    st.sampled_from([bottom(1.0), bottom(2.0)]),
)
MERGE_AGGREGATES = st.sampled_from([F_S, F_MAX, ModularBottom()])


def block_schema(name: str, width: int) -> TableSchema:
    return TableSchema(name, [Column(f"c{i}", DataType.INT, name) for i in range(width)])


@st.composite
def score_relation(draw, schema: TableSchema, cells=CELLS):
    """Key attributes of *schema* and a score relation keyed on them
    (possibly empty; small domains so relations overlap and share keys)."""
    width = len(schema.columns)
    positions = sorted(
        draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=2, unique=True))
    )
    keys = st.tuples(*[cells] * len(positions))
    scores = draw(st.dictionaries(keys, MERGE_PAIRS, max_size=8))
    return [schema.columns[p].qualified_name for p in positions], scores


def naive_fold(rows, lookups, key_positions, aggregate):
    """The oracle: per row, fold the pair of every lookup covering it."""
    scores, pairs = {}, []
    for row in rows:
        found = []
        for positions, table in lookups:
            probe = tuple(row[p] for p in positions)
            if probe in table:
                found.append(table[probe])
        pair, _ = aggregate.fold(None, found)
        pairs.append(IDENTITY if pair is None else pair)
        if pair is not None:
            scores[tuple(row[p] for p in key_positions)] = pair
    return scores, pairs


def assert_same_merge(out, rows, expected_scores, expected_pairs):
    # Contents and insertion order of the score relation, and aligned pairs.
    assert list(out.scores.items()) == list(expected_scores.items())
    assert (out.pairs or [IDENTITY] * len(rows)) == expected_pairs
    assert out.to_prelation().pairs == expected_pairs


class TestBlockMergeProperty:
    @given(data=st.data(), aggregate=MERGE_AGGREGATES)
    @settings(max_examples=examples(200), deadline=None)
    def test_merge_embedded_equals_per_row_fold(self, data, aggregate):
        schema = block_schema("B", 4)
        rows = data.draw(st.lists(st.tuples(*[CELLS] * 4), max_size=30))
        relations = data.draw(st.lists(score_relation(schema), min_size=1, max_size=3))
        extra = data.draw(st.sampled_from([[], ["B.c0"], ["B.c3", "B.c1"]]))
        embedded = [Intermediate(schema, [], attrs, scores) for attrs, scores in relations]
        out = scorerel.merge_embedded(schema, rows, embedded, extra, aggregate)
        key_positions = list(
            dict.fromkeys(
                schema.index_of(a) for a in extra + [a for attrs, _ in relations for a in attrs]
            )
        )
        lookups = [
            ([schema.index_of(a) for a in attrs], scores) for attrs, scores in relations
        ]
        assert_same_merge(out, rows, *naive_fold(rows, lookups, key_positions, aggregate))

    @given(data=st.data(), aggregate=MERGE_AGGREGATES)
    @settings(max_examples=examples(200), deadline=None)
    def test_combine_join_equals_per_row_fold(self, data, aggregate):
        left_schema, right_schema = block_schema("L", 2), block_schema("R", 3)
        schema = left_schema.join(right_schema)
        left_attrs, left_scores = data.draw(score_relation(left_schema))
        right_attrs, right_scores = data.draw(score_relation(right_schema))
        rows = data.draw(st.lists(st.tuples(*[CELLS] * 5), max_size=30))
        left = Intermediate(left_schema, [], left_attrs, left_scores)
        right = Intermediate(right_schema, [], right_attrs, right_scores)
        out = scorerel.combine_join(left, right, schema, rows, aggregate)
        left_positions = list(left.key_positions())
        right_positions = [2 + p for p in right.key_positions()]
        lookups = [(left_positions, left_scores), (right_positions, right_scores)]
        expected = naive_fold(rows, lookups, left_positions + right_positions, aggregate)
        assert_same_merge(out, rows, *expected)

    @given(
        data=st.data(),
        aggregate=MERGE_AGGREGATES,
        bound=st.sampled_from([None, 0, 1, 2, 3]),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_a_probed_merge_equals_a_scanned_one(self, data, aggregate, bound):
        # A memo hit's rows: the stored ones (an exact hit, bound None) or
        # those whose bounded value passes ``>= bound`` (a subsumed family
        # hit; the entry is stored at bound 0).  NULL key cells included.
        schema = block_schema("B", 4)
        cells = st.one_of(st.none(), CELLS)
        stored = tuple(data.draw(st.lists(st.tuples(*[cells] * 4), max_size=30)))
        values = tuple(data.draw(st.lists(CELLS, min_size=len(stored), max_size=len(stored))))
        block = Block(schema, stored, CostModel(), 0, 0, values)
        if bound is None:
            rows, probe = list(stored), Probe(block)
        else:
            rows, probe = RangeFamily(None, ">=", bound, "B.c0", None).rows(block)
        relations = data.draw(
            st.lists(score_relation(schema, cells), min_size=1, max_size=3)
        )
        extra = data.draw(st.sampled_from([[], ["B.c0"], ["B.c3", "B.c1"]]))
        embedded = [Intermediate(schema, [], attrs, scores) for attrs, scores in relations]
        scanned = scorerel.merge_embedded(schema, rows, embedded, extra, aggregate)
        with mock.patch.object(scorerel, "PROBE_ROWS_PER_ENTRY", 0):  # probe every lookup
            probed = scorerel.merge_embedded(schema, rows, embedded, extra, aggregate, probe)
        assert list(probed.scores.items()) == list(scanned.scores.items())
        assert probed.pairs == scanned.pairs
        assert probed.covered == scanned.covered
        assert probed.covered == [i for i, pair in enumerate(probed.pairs) if pair != IDENTITY]
        key_positions = list(
            dict.fromkeys(
                schema.index_of(a) for a in extra + [a for attrs, _ in relations for a in attrs]
            )
        )
        lookups = [
            ([schema.index_of(a) for a in attrs], scores) for attrs, scores in relations
        ]
        assert_same_merge(probed, rows, *naive_fold(rows, lookups, key_positions, aggregate))

    def test_a_small_relation_probes_and_a_large_one_scans(self):
        # The probe/scan rule: an index is built only for the lookups that
        # probe, at the key positions they use.
        schema = block_schema("B", 2)
        stored = tuple((i, i % 5) for i in range(40))
        block = Block(schema, stored, CostModel(), 0)
        small = Intermediate(schema, [], ["B.c1"], {(3,): ScorePair(0.5, 1.0)})
        large = Intermediate(
            schema, [], ["B.c0"], {(i,): ScorePair(0.4, 1.0) for i in range(0, 40, 3)}
        )
        out = scorerel.merge_embedded(schema, list(stored), [small, large], [], F_S, Probe(block))
        assert list(block.indexes) == [(1,)]
        assert out.covered == sorted({i for i in range(40) if i % 5 == 3 or i % 3 == 0})
