"""Unit + property tests for aggregate functions (Definition 3 laws)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    F_MAX,
    F_MIN,
    F_S,
    AggregateFunction,
    WeightedSum,
    check_associative,
    check_commutative,
    check_identity,
    check_laws,
    get_aggregate,
)
from repro.core.scorepair import IDENTITY, ScorePair
from repro.errors import PreferenceError
from tests.conftest import examples

ALL = (F_S, F_MAX, F_MIN)


def pairs_strategy():
    """Arbitrary pairs, including non-canonical bottoms ⟨⊥, c>0⟩.

    A matched preference whose scoring function abstains yields ⟨⊥, c⟩ —
    evidence without a score.  The Definition 3 laws (identity included)
    must hold for those pairs too; bottoms now combine into one bottom
    instead of collapsing to ⟨⊥, 0⟩ and dropping their confidence.
    """
    known = st.builds(
        ScorePair,
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    unknown = st.builds(
        ScorePair,
        st.none(),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    return st.one_of(st.just(IDENTITY), known, unknown)


class TestWeightedSum:
    def test_example4_weighted_combination(self):
        # Two known pairs: score is the confidence-weighted combination,
        # confidence is the sum (can exceed 1, as the paper notes).
        out = F_S.combine(ScorePair(0.8, 1.0), ScorePair(0.3, 1.0))
        assert out.score == pytest.approx(0.55)
        assert out.conf == pytest.approx(2.0)

    def test_weights_matter(self):
        out = F_S.combine(ScorePair(1.0, 0.9), ScorePair(0.0, 0.1))
        assert out.score == pytest.approx(0.9)
        assert out.conf == pytest.approx(1.0)

    def test_bottom_is_ignored(self):
        known = ScorePair(0.7, 0.5)
        assert F_S.combine(known, ScorePair(None, 0.9)) == known
        assert F_S.combine(ScorePair(None, 0.9), known) == known

    def test_all_bottom_sums_confidence(self):
        # Evidence without scores accumulates; dropping it would break the
        # identity law for ⟨⊥, c>0⟩ inputs.
        out = F_S.combine(ScorePair(None, 0.5), ScorePair(None, 0.9))
        assert out.is_bottom
        assert out.conf == pytest.approx(1.4)

    def test_zero_confidence_pairs(self):
        # Zero-confidence knowns are dominated by positive-confidence pairs.
        strong = ScorePair(0.4, 0.8)
        assert F_S.combine(ScorePair(0.9, 0.0), strong) == strong
        # Among themselves, the larger score survives (associative tie rule).
        out = F_S.combine(ScorePair(0.9, 0.0), ScorePair(0.5, 0.0))
        assert out == ScorePair(0.9, 0.0)

    def test_fold(self):
        out, combines = F_S.fold(
            None, [ScorePair(1.0, 0.5), ScorePair(0.0, 0.5), ScorePair(None, 0.9)]
        )
        assert out.score == pytest.approx(0.5)
        assert out.conf == pytest.approx(1.0)
        assert combines == 2

    def test_fold_of_nothing_is_no_pair(self):
        assert F_S.fold(None, []) == (None, 0)
        assert F_S.fold(IDENTITY, []) == (IDENTITY, 0)


class TestMaxConfidence:
    def test_example5_picks_max_confidence(self):
        a, b = ScorePair(0.2, 0.9), ScorePair(0.9, 0.3)
        assert F_MAX.combine(a, b) == a

    def test_tie_breaks_on_score(self):
        a, b = ScorePair(0.2, 0.5), ScorePair(0.9, 0.5)
        assert F_MAX.combine(a, b) == b
        assert F_MAX.combine(b, a) == b

    def test_bottom_loses(self):
        known = ScorePair(0.1, 0.1)
        assert F_MAX.combine(ScorePair(None, 0.9), known) == known


class TestMinConfidence:
    def test_picks_min_confidence(self):
        a, b = ScorePair(0.2, 0.9), ScorePair(0.9, 0.3)
        assert F_MIN.combine(a, b) == b

    def test_bottom_still_loses(self):
        known = ScorePair(0.1, 0.9)
        assert F_MIN.combine(ScorePair(None, 0.0), known) == known


class TestBottomHandling:
    """⟨⊥, c⟩ keeps its evidence among bottoms, loses it next to a score."""

    def test_two_bottoms_keep_their_confidence(self):
        assert F_S.combine(ScorePair(None, 0.5), ScorePair(None, 0.9)) == ScorePair(
            None, 1.4
        )
        assert F_MAX.combine(ScorePair(None, 0.5), ScorePair(None, 0.9)) == ScorePair(
            None, 0.9
        )

    def test_identity_law_holds_for_evidence_bearing_bottoms(self):
        # The regression the law-checked registry guards against: the old
        # F_S mapped F(⟨⊥,0⟩, ⟨⊥,c⟩) to ⟨⊥,0⟩, violating Definition 3.
        for fn in ALL:
            assert check_identity(fn, ScorePair(None, 0.7))

    def test_bottom_confidence_never_leaks_into_known(self):
        # Folding ⊥-confidence into a known pair would break associativity
        # of the weighted mean, so it is dropped instead.
        out = F_S.combine(ScorePair(None, 0.9), ScorePair(0.5, 0.2))
        assert out == ScorePair(0.5, 0.2)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_aggregate("F_S") is F_S
        assert get_aggregate("max") is F_MAX
        assert get_aggregate("f_min") is F_MIN

    def test_unknown_rejected(self):
        with pytest.raises(PreferenceError):
            get_aggregate("median")

    def test_equality_by_type(self):
        from repro.core.aggregates import WeightedSum

        assert WeightedSum() == F_S
        assert hash(WeightedSum()) == hash(F_S)


class TestLawsExhaustive:
    """check_laws over a hand-picked pair pool, for every built-in F."""

    POOL = [
        IDENTITY,
        ScorePair(0.0, 0.0),
        ScorePair(1.0, 0.0),
        ScorePair(0.0, 1.0),
        ScorePair(1.0, 1.0),
        ScorePair(0.5, 0.25),
        ScorePair(0.25, 0.75),
    ]

    @pytest.mark.parametrize("fn", ALL, ids=lambda f: f.name)
    def test_laws(self, fn):
        assert check_laws(fn, self.POOL)


class TestLawsProperty:
    """Hypothesis: the Definition 3 laws on random pairs."""

    @settings(max_examples=examples(200))
    @given(pairs_strategy())
    def test_identity(self, p):
        for fn in ALL:
            assert check_identity(fn, p)

    @settings(max_examples=examples(200))
    @given(pairs_strategy(), pairs_strategy())
    def test_commutative(self, a, b):
        for fn in ALL:
            assert check_commutative(fn, a, b)

    @settings(max_examples=examples(300))
    @given(pairs_strategy(), pairs_strategy(), pairs_strategy())
    def test_associative(self, a, b, c):
        for fn in ALL:
            assert check_associative(fn, a, b, c)

    @settings(max_examples=examples(100))
    @given(st.lists(pairs_strategy(), max_size=6))
    def test_fold_order_independent(self, items):
        """fold is invariant under permutation (needed by Prop 4.3)."""
        import itertools

        for fn in ALL:
            reference = fn.fold(IDENTITY, items)[0] or IDENTITY
            for permutation in itertools.islice(itertools.permutations(items), 6):
                folded = fn.fold(IDENTITY, permutation)[0] or IDENTITY
                assert folded.approx_equal(reference, 1e-6)


def combine_loop(fn, previous, pairs):
    """The fold oracle: :meth:`combine` one pair at a time, counting calls.

    ``None`` is "no pair yet" (the first pair is taken as is) and a pair that
    collapses to ⟨⊥,0⟩ is dropped — the prefer UDF's per-key update.
    """
    combines = 0
    for fresh in pairs:
        if previous is None:
            combined = fresh
        else:
            combined = fn.combine(previous, fresh)
            combines += 1
        previous = None if combined.is_default else combined
    return previous, combines


class RoundedSum(WeightedSum):
    """An F_S subclass with its own combine: it must fold through it."""

    name = "F_S_rounded"

    def __init__(self):
        self.calls = 0

    def combine(self, a, b):
        self.calls += 1
        out = super().combine(a, b)
        if out.score is None:
            return out
        return ScorePair(round(out.score, 3), out.conf)


def fold_pairs():
    """Pairs with ⊥ scores, zero confidences, and int scores or confidences."""
    scores = st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(0, 2),
    )
    confs = st.one_of(
        st.just(0.0),
        st.just(0),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(0, 2),
    )
    return st.builds(ScorePair, scores, confs)


def same_fold(got, expected):
    """Equal pair and count, and the same field types (``1`` is not ``1.0``)."""
    (pair, combines), (want, want_combines) = got, expected
    assert combines == want_combines
    assert pair == want
    assert repr(None if pair is None else tuple(pair)) == repr(
        None if want is None else tuple(want)
    )


class TestFoldEqualsCombine:
    """``fold`` is the left fold of ``combine``, for every F and F_S's kernel."""

    @settings(max_examples=examples(300))
    @given(
        st.one_of(st.none(), st.just(IDENTITY), fold_pairs()),
        st.lists(fold_pairs(), max_size=8),
    )
    def test_fold_matches_combine_loop(self, previous, pairs):
        for fn in ALL:
            same_fold(fn.fold(previous, pairs), combine_loop(fn, previous, pairs))
            same_fold(fn.fold(previous, iter(pairs)), combine_loop(fn, previous, pairs))

    @settings(max_examples=examples(200))
    @given(
        st.one_of(st.none(), st.just(IDENTITY), fold_pairs()),
        st.lists(fold_pairs(), max_size=8),
    )
    def test_subclass_folds_through_its_own_combine(self, previous, pairs):
        fn = RoundedSum()
        got = fn.fold(previous, pairs)
        calls, fn.calls = fn.calls, 0
        expected = combine_loop(fn, previous, pairs)
        same_fold(got, expected)
        assert calls == expected[1]

    def test_subclass_never_reaches_the_kernel(self):
        assert WeightedSum.fold is not AggregateFunction.fold
        assert RoundedSum.fold is AggregateFunction.fold
        fn = RoundedSum()
        pair, combines = fn.fold(None, [ScorePair(0.1234, 1.0), ScorePair(0.5, 1.0)])
        assert (pair, combines, fn.calls) == (ScorePair(0.312, 2.0), 1, 1)

    def test_default_reached_mid_fold_is_dropped(self):
        # ⟨⊥,0⟩ ∘ ⟨⊥,0⟩ collapses to the default; the next pair is then
        # taken as is, not combined into the dropped one.
        late = ScorePair(None, 0.5)
        for fn in ALL:
            pair, combines = fn.fold(IDENTITY, [ScorePair(None, 0), late])
            assert pair is late and combines == 1
            assert fn.fold(IDENTITY, [ScorePair(None, 0)]) == (None, 1)

    def test_int_scores_keep_their_type(self):
        pair, _ = F_S.fold(None, [ScorePair(1, 0.0), ScorePair(0, 0.0)])
        assert repr(tuple(pair)) == "(1, 0.0)"
        # Equal scores of both types, no evidence: max keeps the running one.
        pair, _ = F_S.fold(None, [ScorePair(1, 0.0), ScorePair(1.0, 0.0)])
        assert repr(tuple(pair)) == "(1, 0.0)"
        pair, _ = F_S.fold(None, [ScorePair(1, 1), ScorePair(0, 1)])
        assert repr(tuple(pair)) == "(0.5, 2)"
        pair, _ = F_S.fold(None, [ScorePair(None, 1), ScorePair(None, 1)])
        assert repr(tuple(pair)) == "(None, 2.0)"
