"""The columnar executor is byte-identical to the reference evaluator.

Evidence layers:

* Hypothesis property tests: random conditions over random GENRES-shaped
  row multisets — the selection vector selects exactly the rows the
  compiled row predicate selects, and satisfies the strictly-increasing
  in-range invariant.
* Differential conformance: every plan of the fixed generated corpus and
  every workload query × all six strategies returns identical results with
  and without the columnar executor (exact against reference, canonical
  against the row strategies — they combine pairs in law-equivalent but
  different orders).
* Structure: selection pushdown produces equivalent plans, never sinking
  through a LeftJoin's right side, a TopK, or a score filter.
* Plumbing: the per-database column-store cache is reused within a version
  and invalidated by DML; unsupported plan nodes fall back to the row
  strategy silently (``stats.mode == "row"``); typed errors inside the
  columnar executor and guard trips propagate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnStore,
    column_store_for,
    evaluate_columnar,
    selection_vector,
)
from repro.columnar.vectorized import check_selection_invariants
from repro.core.preference import Preference
from repro.engine.native_optimizer import push_selections
from repro.errors import (
    ColumnarUnsupported,
    DataCorruption,
    QueryCancelled,
)
from repro.obs import Tracer
from repro.pexec.engine import ExecutionEngine
from repro.pexec.reference import evaluate_reference
from repro.plan.builder import scan
from repro.plan.nodes import (
    Join,
    LeftJoin,
    PlanNode,
    Prefer,
    Relation,
    Select,
    TopK,
)
from repro.engine.expressions import (
    TRUE,
    And,
    Attr,
    Between,
    Comparison,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    cmp,
    col,
    eq,
)
from repro.resilience import CancellationToken, QueryGuard
from repro.workloads.queries import all_queries

from tests.conformance import assert_identical
from tests.conftest import build_movie_db
from tests.test_strategy_conformance import OVERRIDE_PLANS, PHYSICAL, generated_plan

MOVIE_DB = build_movie_db()
MOVIE_ENGINE = ExecutionEngine(MOVIE_DB)
GENRES_SCHEMA = scan("GENRES").build().schema(MOVIE_DB.catalog)


# ---------------------------------------------------------------------------
# Selection-vector property tests
# ---------------------------------------------------------------------------

GENRE_VALUES = st.sampled_from(["Drama", "Comedy", "Action", None])
ROWS = st.lists(
    st.tuples(st.one_of(st.integers(0, 6), st.none()), GENRE_VALUES),
    min_size=0,
    max_size=20,
)


@st.composite
def conditions(draw):
    """A random condition in the vectorized kernel's supported space."""
    kind = draw(
        st.sampled_from(
            ["eq", "cmp", "eq-flip", "attr-attr", "in", "between", "null", "and", "true"]
        )
    )
    if kind == "eq":
        return eq("GENRES.genre", draw(GENRE_VALUES))
    if kind == "cmp":
        op = draw(st.sampled_from([">", ">=", "<", "<=", "!="]))
        return cmp("GENRES.m_id", op, draw(st.one_of(st.integers(0, 6), st.none())))
    if kind == "eq-flip":
        return Comparison("=", Literal(draw(st.integers(0, 6))), Attr("GENRES.m_id"))
    if kind == "attr-attr":
        op = draw(st.sampled_from(["=", ">", "<="]))
        return Comparison(op, Attr("GENRES.m_id"), Attr("GENRES.m_id"))
    if kind == "in":
        values = draw(st.lists(GENRE_VALUES, min_size=1, max_size=3, unique=True))
        return InList(col("GENRES.genre"), tuple(values))
    if kind == "between":
        low = draw(st.integers(0, 4))
        return Between(col("GENRES.m_id"), low, low + draw(st.integers(0, 3)))
    if kind == "null":
        return IsNull(col("GENRES.genre"), negated=draw(st.booleans()))
    if kind == "and":
        operands = draw(st.lists(conditions(), min_size=2, max_size=3))
        return And(*operands)
    return TRUE


@given(rows=ROWS, condition=conditions())
@settings(max_examples=150, deadline=None)
def test_selection_vector_matches_compiled_predicate(rows, condition):
    store = ColumnStore(rows)
    vector = selection_vector(condition, GENRES_SCHEMA, store)
    if vector is None:  # no kernel for this shape — fallback covers it
        return
    check_selection_invariants(vector, len(rows))
    fn = condition.compile(GENRES_SCHEMA)
    expected = [i for i, row in enumerate(rows) if fn(row)]
    assert vector == expected


def test_selection_vector_unsupported_shapes_return_none():
    store = ColumnStore([(1, "Drama")])
    unsupported = [
        Or(eq("GENRES.m_id", 1), eq("GENRES.m_id", 2)),
        Not(eq("GENRES.m_id", 1)),
    ]
    for condition in unsupported:
        assert selection_vector(condition, GENRES_SCHEMA, store) is None


def test_score_conditions_use_row_path():
    """Score/conf filters never reach the vectorized kernel: ops.select
    routes them through the compiled with-score row predicate."""
    from repro.columnar import ops
    from repro.columnar.column import ColumnarRelation
    from repro.core.scorepair import ScorePair

    rows = [(1, "Drama"), (2, "Comedy"), (3, "Action")]
    pairs = [ScorePair(0.1, 1.0), ScorePair(0.9, 1.0), ScorePair(None, 0.0)]
    relation = ColumnarRelation.from_rows(GENRES_SCHEMA, rows, pairs)
    result = ops.select(relation, cmp("score", ">=", 0.5))
    assert list(result.rows) == [(2, "Comedy")]
    assert result.pairs == [ScorePair(0.9, 1.0)]


# ---------------------------------------------------------------------------
# Differential conformance: serial columnar vs reference and row strategies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_generated_plans_columnar_exact(seed):
    plan = generated_plan(seed)
    reference = MOVIE_ENGINE.run(plan, "reference")
    columnar = MOVIE_ENGINE.run(plan, "reference", columnar=True)
    assert columnar.stats.mode == "columnar"
    assert_identical(
        reference,
        columnar,
        context=f"seed {seed}",
        labels=("reference", "columnar"),
    )


@pytest.mark.parametrize("name", sorted(OVERRIDE_PLANS))
def test_aggregate_override_plans_columnar_exact(name):
    # A change of aggregate inside a prefer chain splits it into runs.
    plan = OVERRIDE_PLANS[name]
    reference = MOVIE_ENGINE.run(plan, "reference")
    columnar = MOVIE_ENGINE.run(plan, "reference", columnar=True)
    assert columnar.stats.mode == "columnar"
    assert_identical(reference, columnar, context=name, labels=("reference", "columnar"))


@pytest.mark.parametrize("workload_query", all_queries(), ids=lambda q: q.name)
def test_workload_queries_columnar_all_strategies(
    workload_query, imdb_tiny, dblp_tiny
):
    db = imdb_tiny if workload_query.dataset == "imdb" else dblp_tiny
    session = workload_query.session(db)
    compiled = session.compile(workload_query.sql)
    reference = session.execute(compiled, strategy="reference")
    columnar = session.execute(compiled, strategy="reference", columnar=True)
    assert columnar.stats.mode == "columnar"
    assert_identical(
        reference,
        columnar,
        context=workload_query.name,
        labels=("reference", "columnar"),
    )
    for strategy in PHYSICAL:
        row = session.execute(compiled, strategy=strategy)
        # Row strategies fold pairs in a different but law-equivalent order:
        # canonical comparison, like the cross-strategy conformance suite.
        assert_identical(
            row,
            columnar,
            exact=False,
            context=f"{workload_query.name} vs {strategy}",
            labels=(strategy, "columnar"),
        )


def test_pushdown_disabled_still_exact():
    for seed in (0, 7, 23, 41):
        plan = MOVIE_ENGINE.prepare(generated_plan(seed))
        with_push = evaluate_columnar(plan, MOVIE_DB, pushdown=True)
        without = evaluate_columnar(plan, MOVIE_DB, pushdown=False)
        assert with_push.rows == without.rows
        assert with_push.pairs == without.pairs


# ---------------------------------------------------------------------------
# Pushdown structure
# ---------------------------------------------------------------------------


def _selects_below_joins(plan: PlanNode) -> int:
    """Count Select nodes that sit strictly below some Join/LeftJoin."""
    count = 0
    for node in plan.walk():
        if isinstance(node, (Join, LeftJoin)):
            for side in node.children():
                count += sum(1 for n in side.walk() if isinstance(n, Select))
    return count


def test_pushdown_sinks_into_join_side():
    plan = Select(
        Join(
            Relation("MOVIES"),
            Relation("GENRES"),
            Comparison("=", Attr("MOVIES.m_id"), Attr("GENRES.m_id")),
        ),
        cmp("MOVIES.year", ">=", 2005),
    )
    pushed = push_selections(plan, MOVIE_DB.catalog)
    assert _selects_below_joins(pushed) == 1
    assert evaluate_reference(pushed, MOVIE_DB.catalog).same_contents(
        evaluate_reference(plan, MOVIE_DB.catalog)
    )


def test_pushdown_never_sinks_into_leftjoin_right_side():
    condition = Comparison("=", Attr("MOVIES.m_id"), Attr("RATINGS.m_id"))
    plan = Select(
        LeftJoin(Relation("MOVIES"), Relation("RATINGS"), condition),
        cmp("RATINGS.votes", ">", 100),
    )
    pushed = push_selections(plan, MOVIE_DB.catalog)
    # the right-side conjunct must stay above the LeftJoin
    assert isinstance(pushed, Select)
    assert isinstance(pushed.child, LeftJoin)
    assert evaluate_reference(pushed, MOVIE_DB.catalog).same_contents(
        evaluate_reference(plan, MOVIE_DB.catalog)
    )


def test_pushdown_keeps_score_filters_in_place():
    from repro.core.preference import Preference

    pref = Preference("pp", "GENRES", eq("genre", "Comedy"), 0.8, 0.9)
    plan = Select(Prefer(Relation("GENRES"), [pref]), cmp("conf", ">=", 0.5))
    pushed = push_selections(
        MOVIE_ENGINE.prepare(plan), MOVIE_DB.catalog
    )
    assert isinstance(pushed, Select)
    assert pushed.condition.references_score()


def test_pushdown_sinks_below_prefer():
    from repro.core.preference import Preference

    pref = Preference("pq", "GENRES", eq("genre", "Comedy"), 0.8, 0.9)
    plan = Select(
        Prefer(Relation("GENRES"), [pref]), eq("GENRES.genre", "Drama")
    )
    pushed = push_selections(MOVIE_ENGINE.prepare(plan), MOVIE_DB.catalog)
    assert isinstance(pushed, Prefer), "plain select should sink below Prefer"


# ---------------------------------------------------------------------------
# Column-store cache
# ---------------------------------------------------------------------------


def test_column_store_cache_reused_and_invalidated():
    db = build_movie_db()
    first = column_store_for(db, "GENRES")
    assert column_store_for(db, "GENRES") is first
    db.insert("GENRES", (5, "Drama"))  # bumps db.version
    rebuilt = column_store_for(db, "GENRES")
    assert rebuilt is not first
    assert len(rebuilt.rows) == len(first.rows) + 1


def test_column_store_lazy_transposition():
    store = ColumnStore([(1, "a"), (2, "b")])
    assert store.materialized_columns() == ()
    assert store.column(1) == ["a", "b"]
    assert store.materialized_columns() == (1,)
    assert store.column(1) is store.column(1)


def test_snapshot_gets_fresh_cache():
    db = build_movie_db()
    column_store_for(db, "GENRES")
    snap = db.snapshot()
    assert snap.columnar_cache == {}
    # snapshot sees the same data through its own store
    assert column_store_for(snap, "GENRES").rows == list(
        db.catalog.table("GENRES").rows
    )


# ---------------------------------------------------------------------------
# Fallback behavior
# ---------------------------------------------------------------------------


class _Opaque(PlanNode):
    """A plan node the columnar executor does not know."""

    def __init__(self, child: PlanNode):
        self.child = child

    def children(self):
        return [self.child]

    def with_children(self, children):
        return _Opaque(children[0])

    def schema(self, catalog):
        return self.child.schema(catalog)

    def __repr__(self) -> str:
        return f"Opaque({self.child!r})"


def test_unknown_node_raises_columnar_unsupported():
    plan = _Opaque(Relation("GENRES"))
    with pytest.raises(ColumnarUnsupported):
        evaluate_columnar(plan, MOVIE_DB, pushdown=False)


def test_engine_falls_back_to_row_on_unsupported(monkeypatch):
    # Simulate a capability miss: every real node type is columnar-supported,
    # so patch the engine's columnar entry point to refuse whatever it is given.
    import repro.pexec.engine as engine_module

    def refuse(*args, **kwargs):
        raise ColumnarUnsupported("patched: no columnar capability")

    monkeypatch.setattr(engine_module, "evaluate_columnar", refuse)
    plan = generated_plan(5)
    reference = MOVIE_ENGINE.run(plan, "reference")
    columnar = MOVIE_ENGINE.run(plan, "reference", columnar=True)
    assert columnar.stats.mode == "row"
    assert_identical(reference, columnar, labels=("row", "fallback"))


def test_stats_mode_reports_columnar_on_success():
    plan = generated_plan(3)
    result = MOVIE_ENGINE.run(plan, "reference", columnar=True)
    assert result.stats.mode == "columnar"
    row = MOVIE_ENGINE.run(plan, "reference")
    assert row.stats.mode == "row"


def test_columnar_trace_span_present():
    tracer = Tracer()
    MOVIE_ENGINE.run(generated_plan(3), "reference", tracer=tracer, columnar=True)
    span = tracer.root.find("engine.columnar")
    assert span is not None
    assert span.attrs.get("mode") == "columnar"


TOPK_PLAN = TopK(
    Prefer(
        Relation("GENRES"),
        [Preference("pf", "GENRES", eq("genre", "Comedy"), 0.8, 0.9)],
    ),
    3,
    "score",
)


def _assert_no_row_rerun(tracer):
    span = tracer.root.find("engine.columnar")
    assert span is not None and "fallback" not in span.attrs
    assert tracer.root.find("execute:reference") is None


def test_columnar_corruption_propagates_typed(monkeypatch):
    # The executor's corruption is raised at the engine's columnar call.
    import repro.pexec.engine as engine_module

    def corrupt(*args, **kwargs):
        raise DataCorruption("patched: columnar result failed its integrity check")

    monkeypatch.setattr(engine_module, "evaluate_columnar", corrupt)
    tracer = Tracer()
    with pytest.raises(DataCorruption, match="patched"):
        MOVIE_ENGINE.run(TOPK_PLAN, "reference", tracer=tracer, columnar=True)
    _assert_no_row_rerun(tracer)


def test_precancelled_guard_propagates_through_columnar():
    token = CancellationToken()
    token.cancel()
    tracer = Tracer()
    with pytest.raises(QueryCancelled):
        MOVIE_ENGINE.run(
            TOPK_PLAN,
            "reference",
            tracer=tracer,
            columnar=True,
            guard=QueryGuard(token=token),
        )
    # Raised by the columnar attempt itself, not by a row fallback.
    _assert_no_row_rerun(tracer)
