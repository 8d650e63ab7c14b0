"""Unit tests for scoring functions (the S part of preferences)."""

import pytest

from repro.core.scoring import (
    CallableScore,
    ConstantScore,
    ExprScore,
    around_score,
    rating_score,
    recency_score,
    weighted,
)
from repro.engine.expressions import Arithmetic, Attr, Literal
from repro.engine.schema import make_schema
from repro.engine.types import DataType
from repro.errors import PreferenceError

SCHEMA = make_schema(
    "MOVIES",
    [
        ("m_id", DataType.INT),
        ("year", DataType.INT),
        ("duration", DataType.INT),
        ("rating", DataType.FLOAT),
    ],
    primary_key=["m_id"],
)


class TestConstantScore:
    def test_value(self):
        fn = ConstantScore(0.8).compile(SCHEMA)
        assert fn((1, 2008, 116, 8.1)) == 0.8

    def test_range_validated(self):
        with pytest.raises(PreferenceError):
            ConstantScore(1.5)
        with pytest.raises(PreferenceError):
            ConstantScore(-0.1)

    def test_no_attributes(self):
        assert ConstantScore(0.5).attributes() == set()

    def test_map_attributes_is_noop(self):
        s = ConstantScore(0.5)
        assert s.map_attributes(str.upper) is s


class TestPaperScoringFunctions:
    def test_rating_score(self):
        """S_r(rating) = 0.1 · rating (Section III)."""
        fn = rating_score("rating").compile(SCHEMA)
        assert fn((1, 2008, 116, 8.0)) == pytest.approx(0.8)

    def test_recency_score(self):
        """S_m(year, x) = year / x."""
        fn = recency_score("year", 2011).compile(SCHEMA)
        assert fn((1, 2008, 116, 8.0)) == pytest.approx(2008 / 2011)

    def test_recency_validates_reference(self):
        with pytest.raises(PreferenceError):
            recency_score("year", 0)

    def test_around_score_peaks_at_target(self):
        """S_d(duration, x) = 1 − |duration − x| / x."""
        fn = around_score("duration", 120).compile(SCHEMA)
        assert fn((1, 2008, 120, 8.0)) == pytest.approx(1.0)
        assert fn((1, 2008, 60, 8.0)) == pytest.approx(0.5)
        assert fn((1, 2008, 180, 8.0)) == pytest.approx(0.5)

    def test_around_symmetric(self):
        fn = around_score("duration", 120).compile(SCHEMA)
        assert fn((1, 0, 100, 0.0)) == pytest.approx(fn((1, 0, 140, 0.0)))

    def test_weighted_p5(self):
        """Preference p5: 0.5·S_m(year, 2011) + 0.5·S_d(duration, 120)."""
        score = weighted(
            [(0.5, recency_score("year", 2011)), (0.5, around_score("duration", 120))]
        )
        fn = score.compile(SCHEMA)
        expected = 0.5 * (2008 / 2011) + 0.5 * (1 - 4 / 120)
        assert fn((1, 2008, 116, 8.0)) == pytest.approx(expected)

    def test_weighted_requires_expr_parts(self):
        with pytest.raises(PreferenceError):
            weighted([(1.0, CallableScore(lambda x: x, ["year"]))])

    def test_weighted_empty_rejected(self):
        with pytest.raises(PreferenceError):
            weighted([])


class TestClamping:
    def test_clamps_above_one(self):
        fn = ExprScore(Arithmetic("*", Attr("rating"), Literal(10.0))).compile(SCHEMA)
        assert fn((1, 0, 0, 0.9)) == 1.0

    def test_clamps_below_zero(self):
        fn = ExprScore(Arithmetic("-", Literal(0.0), Attr("rating"))).compile(SCHEMA)
        assert fn((1, 0, 0, 0.9)) == 0.0

    def test_null_becomes_bottom(self):
        fn = rating_score("rating").compile(SCHEMA)
        assert fn((1, 2008, 116, None)) is None

    def test_division_by_zero_becomes_bottom(self):
        fn = ExprScore(Arithmetic("/", Literal(1.0), Attr("rating"))).compile(SCHEMA)
        assert fn((1, 0, 0, 0.0)) is None

    def test_nan_becomes_bottom(self):
        fn = ExprScore(Arithmetic("*", Attr("rating"), Literal(0.1))).compile(SCHEMA)
        assert fn((1, 0, 0, float("nan"))) is None


class TestCallableScore:
    def test_single_attribute(self):
        score = CallableScore(lambda year: (year - 2000) / 20, ["year"])
        assert score.compile(SCHEMA)((1, 2010, 0, 0.0)) == pytest.approx(0.5)

    def test_multiple_attributes(self):
        score = CallableScore(
            lambda year, duration: 0.5 if year > 2000 and duration < 120 else 0.1,
            ["year", "duration"],
        )
        assert score.compile(SCHEMA)((1, 2005, 100, 0.0)) == 0.5

    def test_clamped(self):
        score = CallableScore(lambda y: 5.0, ["year"])
        assert score.compile(SCHEMA)((1, 2005, 0, 0.0)) == 1.0

    def test_none_result_is_bottom(self):
        score = CallableScore(lambda y: None, ["year"])
        assert score.compile(SCHEMA)((1, 2005, 0, 0.0)) is None

    def test_nan_result_is_bottom(self):
        score = CallableScore(lambda y: float("nan"), ["year"])
        assert score.compile(SCHEMA)((1, 2005, 0, 0.0)) is None

    def test_attrs_required(self):
        with pytest.raises(PreferenceError):
            CallableScore(lambda: 1.0, [])

    def test_attributes_exposed(self):
        score = CallableScore(lambda a, b: 0.0, ["Year", "duration"])
        assert score.attributes() == {"year", "duration"}

    def test_map_attributes(self):
        score = CallableScore(lambda a: 0.0, ["year"])
        mapped = score.map_attributes(lambda n: f"MOVIES.{n}")
        assert mapped.attributes() == {"movies.year"}


class TestEquality:
    def test_expr_scores_equal_by_tree(self):
        assert recency_score("year", 2011) == recency_score("year", 2011)
        assert recency_score("year", 2011) != recency_score("year", 2010)

    def test_constant_equality(self):
        assert ConstantScore(0.5) == ConstantScore(0.5)
        assert ConstantScore(0.5) != ConstantScore(0.6)

    def test_describe(self):
        assert "S_m" in recency_score().describe()
        assert "S_d" in around_score().describe()
        assert "S_r" in rating_score().describe()
