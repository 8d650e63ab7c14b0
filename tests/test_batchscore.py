"""Fused batch scoring equals the per-preference reference fold — exactly.

The fused group pass is the only way the strategies score a prefer run, so
these Hypothesis properties pin it to the per-preference folds
(``core.prefer.prefer`` on p-relations, :func:`sequential_score_relation`
below on score relations): random preference pools over random row multisets produce
*identical* score pairs and score relations, for both F_S and F_max.  The
pools reach every path of the compiled group (pre-filled and lazy column
tables, expression scores over a nullable column, ``IN (…, NULL)``, the
dispatch index, multi-column residual conditions); the inputs carry shared
and distinct non-identity pairs, duplicate score-relation keys and a
non-empty base relation, so every reuse of a cached fold is checked.
The last test pins the scoring counters EXPLAIN ANALYZE reports for one
``embed_prefs``-shaped query, so a faster fold keeps them comparable with
``reference``.

End-to-end agreement of every strategy with the ``reference`` oracle is
``tests/test_strategy_conformance.py``'s job.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import F_MAX, F_S
from repro.core.prefer import prefer
from repro.core.preference import Preference
from repro.core.prefgroup import PreferenceGroup
from repro.core.prelation import PRelation
from repro.core.scorepair import IDENTITY, ScorePair, bottom
from repro.core.scoring import ConstantScore, around_score, recency_score
from repro.engine.expressions import TRUE, And, InList, Or, cmp, col, eq
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType
from repro.obs import Tracer
from repro.pexec.batchscore import apply_prefer_group, group_scores_from_rows, prefer_group
from repro.pexec.scorerel import Intermediate
from repro.plan.nodes import Prefer
from repro.query.session import Session
from repro.workloads import generate_imdb
from tests.conftest import examples

AGGREGATES = st.sampled_from([F_S, F_MAX])

#: A relation with a key-like column, a text column and a nullable numeric
#: column: enough to put preferences on every path of the compiled group.
T_SCHEMA = TableSchema(
    "T",
    [
        Column("k", DataType.INT, "T"),
        Column("g", DataType.TEXT, "T"),
        Column("n", DataType.INT, "T"),
    ],
)
GENRES = st.sampled_from(["Drama", "Comedy", "Action", "Horror", None])
NUMBERS = st.one_of(st.none(), st.integers(0, 12))
UNIT = st.floats(0.0, 1.0, allow_nan=False, width=32)
FRESH_PAIRS = st.builds(ScorePair, st.one_of(st.none(), UNIT), UNIT)
#: Shared pair objects, so identical inputs meet the fold cache.
SHARED_PAIRS = [IDENTITY, ScorePair(0.5, 0.5), bottom(0.3), ScorePair(0.2, 0.0)]
PAIRS = st.one_of(st.sampled_from(SHARED_PAIRS), FRESH_PAIRS)


def n_score(draw):
    """An expression score over the nullable column (NULL scores ⊥)."""
    if draw(st.booleans()):
        return recency_score("T.n", draw(st.integers(1, 12)))
    return around_score("T.n", float(draw(st.integers(1, 12))))


@st.composite
def preferences(draw):
    """One random preference over T, for every path of the compiled group:
    pre-filled and lazy column tables (constant and expression scores, IN
    with NULL), the dispatch index, and multi-column residual conditions."""
    genre = GENRES.filter(lambda g: g is not None)
    kind = draw(
        st.sampled_from(
            ["eq", "in", "range_k", "range_n", "true_n", "in_null_n",
             "eq_scored", "eq_and_range", "multi", "true"]
        )
    )
    score = ConstantScore(draw(UNIT))
    if kind == "eq":
        condition = eq("T.g", draw(genre))
    elif kind == "in":
        values = draw(st.lists(GENRES, min_size=1, max_size=3, unique=True))
        condition = InList(col("T.g"), tuple(values))
    elif kind == "range_k":
        condition = cmp("T.k", ">=", draw(st.integers(0, 5)))
    elif kind == "range_n":
        condition, score = cmp("T.n", ">=", draw(st.integers(0, 12))), n_score(draw)
    elif kind == "true_n":
        condition, score = TRUE, n_score(draw)
    elif kind == "in_null_n":
        values = (draw(st.integers(0, 12)), None)
        condition, score = InList(col("T.n"), values), n_score(draw)
    elif kind == "eq_scored":
        condition, score = eq("T.g", draw(genre)), n_score(draw)
    elif kind == "eq_and_range":
        condition = And(eq("T.g", draw(genre)), cmp("T.k", ">=", draw(st.integers(0, 5))))
    elif kind == "multi":
        condition = Or(
            cmp("T.k", ">=", draw(st.integers(0, 5))),
            cmp("T.n", "<=", draw(st.integers(0, 12))),
        )
    else:
        condition = TRUE
    conf = draw(UNIT)
    name = f"h{draw(st.integers(0, 10**6))}"
    return Preference(name, "T", condition, score, conf)


ROWS = st.lists(
    st.tuples(st.integers(1, 4), GENRES, NUMBERS), min_size=0, max_size=14
)
POOLS = st.lists(preferences(), min_size=1, max_size=8)
#: Score-relation entries before the group runs, keyed like the rows (some
#: keys have rows, some do not).
BASES = st.dictionaries(st.tuples(st.integers(1, 6)), FRESH_PAIRS, max_size=4)


def sequential_score_relation(inter, preferences, aggregate):
    """The score-relation oracle: one pass over the rows per preference.

    The §VI prefer UDF applied preference by preference: a qualifying key's
    fresh pair is inserted, or combined into the pair it already has, and a
    pair that collapses to the default is dropped.  Returns a new dict.
    """
    scores = dict(inter.scores)
    key = inter.key_fn()
    for preference in preferences:
        condition = preference.condition.compile(inter.schema)
        scoring = preference.scoring.compile(inter.schema)
        for row in filter(condition, inter.rows):
            k = key(row)
            fresh = ScorePair(scoring(row), preference.confidence)
            previous = scores.get(k)
            pair = fresh if previous is None else aggregate.combine(previous, fresh)
            if pair.is_default:
                scores.pop(k, None)
            else:
                scores[k] = pair
    return scores


@given(rows=ROWS, pool=POOLS, aggregate=AGGREGATES, data=st.data())
@settings(max_examples=examples(120), deadline=None)
def test_fused_pairs_equal_sequential_fold(rows, pool, aggregate, data):
    pairs = data.draw(st.lists(PAIRS, min_size=len(rows), max_size=len(rows)))
    relation = PRelation(T_SCHEMA, rows, pairs)
    sequential = relation
    for preference in pool:
        sequential = prefer(sequential, preference, aggregate)
    fused = prefer_group(relation, pool, aggregate)
    assert fused.pairs == sequential.pairs


@given(rows=ROWS, pool=POOLS, aggregate=AGGREGATES, base=BASES)
@settings(max_examples=examples(120), deadline=None)
def test_fused_score_relation_equals_sequential_fold(rows, pool, aggregate, base):
    # Key on k only: duplicate keys force the per-key replay path, and the
    # base relation puts pairs under some keys before the group runs.
    inter = Intermediate(T_SCHEMA, rows, ["T.k"], dict(base))
    sequential = sequential_score_relation(inter, pool, aggregate)
    compiled = PreferenceGroup(pool, aggregate).compile(T_SCHEMA)
    fused = compiled.score_rows(rows, inter.key_fn(), inter.scores)
    assert fused == sequential
    assert apply_prefer_group(inter, pool, aggregate).scores == sequential
    assert inter.scores == base  # the base relation is not mutated
    for row in rows:  # merged per-source match lists keep group order
        indices = [index for index, _ in compiled.matches(row)]
        assert indices == sorted(indices)


@given(rows=ROWS, pool=POOLS, aggregate=AGGREGATES)
@settings(max_examples=examples(60), deadline=None)
def test_a_row_keyed_by_itself_scores_like_its_key_tuple(rows, pool, aggregate):
    # A key that is the whole row in order builds no key tuple: the row is
    # its own key, in the same insertion order, with the same counters.
    attrs = [column.qualified_name for column in T_SCHEMA.columns]
    group = PreferenceGroup(pool, aggregate)
    by_tuple = group.compile(T_SCHEMA)
    expected = by_tuple.score_rows(rows, lambda row: tuple(row))
    by_row = group.compile(T_SCHEMA)
    assert list(by_row.score_rows(rows, None).items()) == list(expected.items())
    assert by_row.stats.as_dict() == by_tuple.stats.as_dict()
    scores = group_scores_from_rows(T_SCHEMA, rows, attrs, group.compile(T_SCHEMA))
    assert list(scores.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# Counter pin: EXPLAIN ANALYZE's scoring counters on an embed_prefs-shaped query
# ---------------------------------------------------------------------------

#: MOVIES ⋈ GENRES with 24 range, IN and equality preferences, a third of
#: them scored by an expression: the spine's ``embed_prefs`` query shape.
PIN_PREFERENCES = [
    ("eq", "GENRES", "genre", "Drama"),
    ("ge", "MOVIES", "year", 1983),
    ("in", "MOVIES", "year", (1957, 1970, 1983, 1996)),
    ("dur", "MOVIES", "duration", 90),
    ("ge", "MOVIES", "year", 1991),
    ("eq", "GENRES", "genre", "Comedy"),
    ("ge", "MOVIES", "year", 1999),
    ("in", "MOVIES", "year", (1960, 1973, 2001, 2005)),
]
PIN_SQL = (
    "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES WHERE year >= 2000 "
    "PREFERRING " + ", ".join(f"pin{n}" for n in range(24)) + " TOP 10 BY score"
)
#: (prefer.batch fused_combines, matches, aggregate.combine, tuples scanned,
#: tuples materialized) per strategy, as measured before F_S folded on bare
#: floats: a faster fold must not change what EXPLAIN ANALYZE reports.  Only
#: ``fused_combines`` may move, and only down: FtP's went 2731 → 2294 when
#: ``score_pairs`` began folding each distinct (match list, input pair) once.
PINNED_COUNTERS = {
    "gbu": (2633, 6108, 6108, 1994, 3694),
    "ftp": (2294, 3085, 3085, 1286, 1286),
    "bu": (2633, 6108, 6108, 6457, 4559),
}


def pin_preference(n: int) -> Preference:
    kind, relation, attr, value = PIN_PREFERENCES[n % len(PIN_PREFERENCES)]
    conf = 0.5 + (n * 37 % 45) / 100
    if kind == "eq":
        return Preference(f"pin{n}", relation, eq(attr, value), 0.3 + n / 40, conf)
    if kind == "in":
        return Preference(f"pin{n}", relation, InList(col(attr), value), 0.4, conf)
    if kind == "dur":
        condition = cmp(attr, ">=", value + n)
        return Preference(f"pin{n}", relation, condition, around_score(attr, 120), conf)
    condition = cmp(attr, ">=", value + n // 2)
    return Preference(f"pin{n}", relation, condition, recency_score(attr, 2011), conf)


def scoring_counters(session, strategy: str) -> tuple:
    result = session.execute(PIN_SQL, strategy=strategy, tracer=Tracer())
    batches = result.stats.trace.find_all("prefer.batch")
    totals = tuple(
        sum(span.counters.get(name, 0) for span in batches)
        for name in ("fused_combines", "matches", "aggregate.combine")
    )
    cost = result.stats.cost
    return totals + (cost["tuples_scanned"], cost["tuples_materialized"])


def test_scoring_counters_are_pinned():
    session = Session(generate_imdb(scale=0.001, seed=2012))
    for n in range(24):
        session.register(pin_preference(n))
    measured = {strategy: scoring_counters(session, strategy) for strategy in PINNED_COUNTERS}
    assert measured == PINNED_COUNTERS


def test_a_kept_compilation_counts_like_a_fresh_one():
    # GBU and BU keep a run's compiled group on its prefer node, and a
    # later query at the same data version scores on a fresh copy of it:
    # every counter repeats.  A lazy column table shared across passes
    # would skip its evaluations (residual checks) the second time.
    session = Session(generate_imdb(scale=0.0005, seed=3))
    sql = (
        "SELECT title FROM MOVIES PREFERRING (year >= 2000) SCORE 0.5 ON MOVIES "
        "TOP 5 BY score"
    )
    for strategy in ("gbu", "bu"):
        runs = [session.execute(sql, strategy=strategy, tracer=Tracer()) for _ in range(3)]
        (head,) = [node for node in runs[-1].executed_plan.walk() if isinstance(node, Prefer)]
        assert head._compiled is not None  # compiled once, then copied
        batches = [
            [span.counters for span in run.stats.trace.find_all("prefer.batch")]
            for run in runs
        ]
        assert batches[0] == batches[1] == batches[2]
        assert batches[0][0]["residual_checks"] > 0
        assert [run.relation.rows for run in runs[1:]] == [runs[0].relation.rows] * 2
