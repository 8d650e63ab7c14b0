"""Cross-strategy conformance: every physical strategy equals the oracle.

Four query sources, ≥50 generated queries total:

* the six Table II workload queries over the tiny synthetic IMDB/DBLP sets;
* 50 deterministically generated random plans over the example movie
  database (random join chains, selections, prefer placements, filtering
  suffixes — the same space the Hypothesis fuzzer samples, but with a fixed
  seed corpus so CI failures reproduce bit-for-bit);
* prefgen-manufactured preferences of controlled selectivity over the
  synthetic IMDB set;
* per-node aggregate overrides: a mixed-aggregate prefer chain, an
  override above a join and overrides below a project, a join and a left
  join, plus a left join on a non-equality condition;
* one plan per prefer path of the row strategies, traced to check that the
  compiled preference group scores every prefer node;
* a preference whose scoring function returns NaN: every strategy scores it
  ⊥, so top-k still ranks the other preference's scores;
* one sample plan per concrete plan-node class, discovered live, run on
  every strategy and the columnar executor — a new node class without a
  sample fails the census;
* malformed plans (unresolvable names, filters below a prefer, a prefer on
  the wrong input, incompatible set operations, disagreeing aggregates):
  every strategy answers like the reference or raises the same typed error.

Every plan of the corpus, and every SQL query of it once compiled, keeps
prefer runs in normal form through each optimizer rule.

On divergence the failing strategy is re-run under a collecting tracer and
the assertion message carries its full per-operator trace.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro import Tracer
from repro.core.aggregates import F_MAX, F_MIN
from repro.core.preference import Preference
from repro.core.scoring import (
    CallableScore,
    ConstantScore,
    around_score,
    rating_score,
    recency_score,
)
from repro.engine.expressions import TRUE, Attr, Comparison, cmp, eq
from repro.errors import ReproError
from repro.obs import render_trace
from repro.pexec.engine import STRATEGIES, ExecutionEngine
from repro.plan.builder import natural_join_condition
from repro.plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    Materialized,
    PlanNode,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)
from repro.query.session import Session
from repro.workloads.imdb import generate_imdb
from repro.workloads.prefgen import (
    equality_preference,
    preference_pool,
    range_preference,
)
from repro.workloads.queries import all_queries

from tests.conformance import (
    assert_identical,
    canonical_multiset,
    diff_report,
    optimize_keeping_runs_normal,
    prefer_runs_normal,
)
from tests.conftest import build_movie_db

PHYSICAL = ("gbu", "bu", "ftp", "plugin-rma", "plugin-shared")

MOVIE_DB = build_movie_db()
MOVIE_ENGINE = ExecutionEngine(MOVIE_DB)


def _trace_of(run, strategy) -> str:
    """Re-run the divergent strategy under a tracer and render its trace."""
    tracer = Tracer()
    try:
        run(strategy, tracer)
    except Exception as err:  # trace collection must never mask the diff
        return f"(re-run under tracer failed: {err})"
    return render_trace(tracer.root)


def _assert_conformant(run, plan_repr: str) -> None:
    """``run(strategy, tracer=None)`` must match the reference for all strategies."""
    reference = run("reference", None)
    baseline = canonical_multiset(reference)
    for strategy in PHYSICAL:
        result = run(strategy, None)
        candidate = canonical_multiset(result)
        if baseline != candidate:
            trace = _trace_of(run, strategy)
            raise AssertionError(
                f"{strategy} diverged from reference on {plan_repr}\n"
                + diff_report(baseline, candidate, ("reference", strategy))
                + f"\ntrace of divergent run:\n{trace}"
            )


# ---------------------------------------------------------------------------
# Workload queries (Table II) over the tiny synthetic data sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload_query", all_queries(), ids=lambda q: q.name)
def test_workload_queries_conform(workload_query, imdb_tiny, dblp_tiny):
    db = imdb_tiny if workload_query.dataset == "imdb" else dblp_tiny
    session = workload_query.session(db)
    compiled = session.compile(workload_query.sql)

    def run(strategy, tracer):
        return session.execute(compiled, strategy=strategy, tracer=tracer)

    _assert_conformant(run, workload_query.name)


# ---------------------------------------------------------------------------
# Deterministic random plans (the fixed seed corpus)
# ---------------------------------------------------------------------------

CHAIN = ("MOVIES", "GENRES", "DIRECTORS", "RATINGS")

CONDITIONS = {
    "MOVIES": [
        cmp("MOVIES.year", ">=", 2005),
        cmp("MOVIES.duration", "<", 125),
        eq("MOVIES.m_id", 3),
        TRUE,
    ],
    "GENRES": [eq("GENRES.genre", "Comedy"), eq("GENRES.genre", "Drama"), TRUE],
    "DIRECTORS": [eq("DIRECTORS.d_id", 1), TRUE],
    "RATINGS": [cmp("RATINGS.votes", ">", 100), cmp("RATINGS.rating", ">=", 7.0), TRUE],
}

SCORINGS = {
    "MOVIES": [recency_score("MOVIES.year", 2011), around_score("MOVIES.duration", 120)],
    "GENRES": [ConstantScore(0.8), ConstantScore(0.3)],
    "DIRECTORS": [ConstantScore(0.9)],
    "RATINGS": [rating_score("RATINGS.rating"), ConstantScore(0.6)],
}


def generated_plan(seed: int):
    """One deterministic random plan in the fuzzer's sample space."""
    rng = random.Random(seed)
    names = CHAIN[: rng.randint(1, len(CHAIN))]
    plan = Relation(names[0])
    for name in names[1:]:
        right = Relation(name)
        condition = natural_join_condition(MOVIE_DB.catalog, plan, right)
        join_cls = Join if rng.random() < 0.7 else LeftJoin
        plan = join_cls(plan, right, condition)
    if rng.random() < 0.5:
        relation = rng.choice(names)
        plan = Select(plan, rng.choice(CONDITIONS[relation]))
    for number in range(rng.randint(0, 3)):
        relation = rng.choice(names)
        preference = Preference(
            f"gen{seed}.{number}[{relation}]",
            relation,
            rng.choice(CONDITIONS[relation]),
            rng.choice(SCORINGS[relation]),
            round(rng.uniform(0.1, 1.0), 3),
        )
        plan = Prefer.over(plan, [preference])
    suffix = rng.choice(["none", "topk", "conf", "score-topk"])
    if suffix in ("conf", "score-topk"):
        plan = Select(plan, cmp("conf", ">=", rng.choice([0.2, 0.5, 0.9])))
    if suffix in ("topk", "score-topk"):
        plan = TopK(plan, rng.randint(1, 6), rng.choice(["score", "conf"]))
    return plan


@pytest.mark.parametrize("seed", range(50))
def test_generated_plans_conform(seed):
    plan = generated_plan(seed)

    def run(strategy, tracer):
        return MOVIE_ENGINE.run(plan, strategy, tracer=tracer)

    _assert_conformant(run, repr(plan))


# ---------------------------------------------------------------------------
# prefgen preferences of controlled selectivity over synthetic IMDB
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("selectivity", [0.05, 0.2, 0.5])
def test_prefgen_selectivity_queries_conform(imdb_tiny, selectivity):
    engine = ExecutionEngine(imdb_tiny)
    genre = equality_preference(imdb_tiny, "GENRES", "genre", selectivity)
    years = range_preference(imdb_tiny, "MOVIES", "year", selectivity)
    movies = Relation("MOVIES")
    genres = Relation("GENRES")
    plan = Join(
        movies, genres, natural_join_condition(imdb_tiny.catalog, movies, genres)
    )
    plan = TopK(Prefer(plan, [genre, years]), 10, "score")

    def run(strategy, tracer):
        return engine.run(plan, strategy, tracer=tracer)

    _assert_conformant(run, f"prefgen selectivity={selectivity}")


@pytest.mark.parametrize("count", [2, 4, 6])
def test_prefgen_pool_queries_conform(imdb_tiny, count):
    engine = ExecutionEngine(imdb_tiny)
    pool = preference_pool(imdb_tiny, count, selectivity=0.1)
    movies = Relation("MOVIES")
    genres = Relation("GENRES")
    plan = Join(
        movies, genres, natural_join_condition(imdb_tiny.catalog, movies, genres)
    )
    run = [p for p in pool if set(p.relations) <= {"MOVIES", "GENRES"}]
    plan = TopK(Prefer(plan, run) if run else plan, 10, "score")

    def run(strategy, tracer):
        return engine.run(plan, strategy, tracer=tracer)

    _assert_conformant(run, f"prefgen pool |λ|={count}")


# ---------------------------------------------------------------------------
# Per-node aggregate overrides (Prefer.aggregate)
# ---------------------------------------------------------------------------

RECENT = Preference(
    "recent", "MOVIES", cmp("MOVIES.year", ">=", 2005),
    recency_score("MOVIES.year", 2011), 0.5,
)
DIRECTOR = Preference("director", "MOVIES", eq("MOVIES.d_id", 1), ConstantScore(0.9), 0.8)
COMEDY = Preference("comedy", "GENRES", eq("GENRES.genre", "Comedy"), ConstantScore(0.8), 0.9)


def _movies_genres(left):
    genres = Relation("GENRES")
    return Join(left, genres, natural_join_condition(MOVIE_DB.catalog, left, genres))


OVERRIDE_PLANS = {
    "mixed-chain": Prefer(Prefer(Relation("MOVIES"), [RECENT]), [DIRECTOR], F_MAX),
    "override-above-join": Prefer(
        _movies_genres(Prefer(Relation("MOVIES"), [RECENT])), [COMEDY], F_MAX
    ),
    # An override below a project, join or left join is no SPJ region for
    # FtP, which then evaluates that operator itself.
    "override-under-project": Project(
        Prefer(Relation("MOVIES"), [RECENT], F_MAX), ["MOVIES.title", "MOVIES.year"]
    ),
    "override-under-join": _movies_genres(Prefer(Relation("MOVIES"), [RECENT], F_MAX)),
    "override-under-left-join": LeftJoin(
        Prefer(Relation("MOVIES"), [RECENT], F_MAX),
        Relation("GENRES"),
        natural_join_condition(MOVIE_DB.catalog, Relation("MOVIES"), Relation("GENRES")),
    ),
    # No equality to hash on: the oracle's left join takes its theta path.
    "theta-left-join": LeftJoin(
        Prefer(Relation("MOVIES"), [RECENT]),
        Relation("DIRECTORS"),
        Comparison("<", Attr("MOVIES.d_id"), Attr("DIRECTORS.d_id")),
    ),
}


@pytest.mark.parametrize("name", sorted(OVERRIDE_PLANS))
def test_per_node_aggregate_override_conforms(name):
    # Every strategy must fold an overriding prefer with its own aggregate,
    # where it was written: FtP and the plug-ins once folded the whole
    # region with the query default, and the optimizer once moved the
    # override across prefers and joins combined with F_S.
    plan = OVERRIDE_PLANS[name]

    def run(strategy, tracer):
        return MOVIE_ENGINE.run(plan, strategy, tracer=tracer)

    _assert_conformant(run, name)


# ---------------------------------------------------------------------------
# Set operations between blocks over different base relations
# ---------------------------------------------------------------------------

#: Operand pairs of a set operation.  The widened sides carry their own
#: relation's key (``m_id`` or ``d_id``, whose values overlap), while the
#: result carries the left side's names; "permuted" reads one relation's
#: columns in two orders, so a key that resolves by name sits elsewhere in
#: the right side's rows.  "scored-year" prefers on a column neither side
#: selects: the projection feeding the set operation keeps only its key.
SETOP_OPERANDS = {
    "plain": ("SELECT title FROM MOVIES", "SELECT director FROM DIRECTORS"),
    "scored-left": (
        "SELECT title FROM MOVIES PREFERRING (m_id <= 3) SCORE 0.7 ON MOVIES",
        "SELECT director FROM DIRECTORS",
    ),
    "scored-right": (
        "SELECT title FROM MOVIES",
        "SELECT director FROM DIRECTORS PREFERRING (d_id <= 2) SCORE 0.5 ON DIRECTORS",
    ),
    "scored-both": (
        "SELECT m_id FROM RATINGS PREFERRING (m_id <= 3) SCORE 0.6 ON RATINGS",
        "SELECT m_id FROM MOVIES PREFERRING (m_id >= 2) SCORE 0.8 CONFIDENCE 0.5 ON MOVIES",
    ),
    "permuted": (
        "SELECT year, m_id FROM MOVIES PREFERRING (m_id <= 3) SCORE 0.7 ON MOVIES",
        "SELECT m_id, year FROM MOVIES PREFERRING (m_id >= 2) SCORE 0.4 ON MOVIES",
    ),
    "scored-year": (
        "SELECT title FROM MOVIES PREFERRING (year >= 2000) SCORE 0.7 ON MOVIES",
        "SELECT director FROM DIRECTORS PREFERRING (director = 'W. Allen') SCORE 0.5 ON DIRECTORS",
    ),
    # A select block's TOP k and score WHERE sit above its projection.
    "topk-year": (
        "SELECT title FROM MOVIES PREFERRING (year >= 2000) SCORE 0.7 ON MOVIES TOP 2 BY score",
        "SELECT director FROM DIRECTORS",
    ),
    "filtered-year": (
        "SELECT director FROM DIRECTORS",
        "SELECT title FROM MOVIES WHERE conf > 0 "
        "PREFERRING (year >= 2006) SCORE 0.5 CONFIDENCE 0.4 ON MOVIES TOP 3 BY conf",
    ),
}

SETOP_QUERIES = {
    f"{op.lower()}-{shape}": f"{left} {op} {right}"
    for op in ("UNION", "INTERSECT", "EXCEPT")
    for shape, (left, right) in SETOP_OPERANDS.items()
}


@pytest.mark.parametrize("name", sorted(SETOP_QUERIES))
def test_set_operations_across_relations_conform(name):
    # GBU once merged a set operation's inputs by key inside one block:
    # the right side's key raised SchemaError against the left-named
    # output, and a permuted side's key silently read another column.
    session = Session(MOVIE_DB)
    sql = SETOP_QUERIES[name]
    reference = session.execute(sql, strategy="reference")
    for strategy in STRATEGIES:
        assert_identical(
            reference,
            session.execute(sql, strategy=strategy),
            context=name,
            labels=("reference", strategy),
        )


#: A preference on a column the select list does not name, and one on the
#: key, over a union with another relation (the generator database); bare,
#: under TOP k, and under a score WHERE and TOP k.
UNSELECTED_PREFERENCE_UNIONS = [
    f"SELECT title FROM MOVIES {where}PREFERRING ({condition}) SCORE 0.7 ON MOVIES "
    f"{top}UNION SELECT director FROM DIRECTORS"
    for condition in ("year >= 2000", "m_id < 50")
    for where, top in (("", ""), ("", "TOP 5 BY score "), ("WHERE score > 0.1 ", "TOP 3 BY conf "))
]


@pytest.mark.parametrize("sql", UNSELECTED_PREFERENCE_UNIONS)
def test_a_union_answers_a_preference_on_an_unselected_column(sql):
    # Widening once carried MOVIES.year into the left input only, and every
    # strategy raised PlanError: the inputs were not union-compatible.
    session = Session(generate_imdb(scale=0.001, seed=7))
    reference = session.execute(sql, strategy="reference")
    assert len(reference.relation) > 0
    for strategy in STRATEGIES:
        assert_identical(
            reference,
            session.execute(sql, strategy=strategy),
            context=sql,
            labels=("reference", strategy),
        )


# ---------------------------------------------------------------------------
# Every prefer node is scored by the compiled group
# ---------------------------------------------------------------------------


def _movies_union():
    movies = Relation("MOVIES")
    return Union(
        Select(movies, cmp("MOVIES.year", ">=", 2005)),
        Select(movies, cmp("MOVIES.duration", "<", 125)),
    )


#: One plan per prefer path of the row strategies: a single prefer over a
#: base relation (native σ_φ) and over impure input (a union, a score
#: select), a same-aggregate run over a relation and over a join, and an
#: aggregate override (FtP's Prefer branch, GBU's lazy input with scores).
PREFER_PATH_PLANS = {
    "single-over-base": Prefer(Relation("MOVIES"), [RECENT]),
    "single-over-union": Prefer(_movies_union(), [DIRECTOR]),
    "single-over-score-select": Prefer(
        Select(Prefer(Relation("MOVIES"), [RECENT]), cmp("conf", ">=", 0.2)), [DIRECTOR]
    ),
    "run-over-base": Prefer(Relation("MOVIES"), [RECENT, DIRECTOR]),
    "run-over-join": Prefer(_movies_genres(Relation("MOVIES")), [RECENT, COMEDY]),
    "override": OVERRIDE_PLANS["mixed-chain"],
}


@pytest.mark.parametrize("strategy", ("gbu", "bu", "ftp"))
@pytest.mark.parametrize("name", sorted(PREFER_PATH_PLANS))
def test_every_prefer_is_scored_by_the_compiled_group(name, strategy):
    # The fused group pass is the only way a row strategy turns rows into
    # score pairs: its prefer.batch spans account for every preference.
    plan = PREFER_PATH_PLANS[name]
    tracer = Tracer()
    result = MOVIE_ENGINE.run(plan, strategy, tracer=tracer)
    scored = sum(span.attrs["preferences"] for span in tracer.root.find_all("prefer.batch"))
    assert scored == len(plan.preferences())
    assert_identical(
        MOVIE_ENGINE.run(plan, "reference"),
        result,
        context=name,
        labels=("reference", strategy),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_nan_scores_are_bottom_in_every_strategy(imdb_tiny, strategy):
    session = Session(imdb_tiny)
    session.register(
        Preference(
            "nan", "MOVIES", cmp("year", ">=", 1990),
            CallableScore(lambda year: float("nan"), ["year"]), 0.8,
        )
    )
    session.register(
        Preference("recent", "MOVIES", cmp("year", ">=", 2000), recency_score("year", 2011), 0.9)
    )
    sql = "SELECT title FROM MOVIES PREFERRING nan, recent TOP 3 BY score"
    result = session.execute(sql, strategy=strategy)
    assert_identical(session.execute(sql, strategy="reference"), result, exact=False)
    triples = list(result.presented().triples())
    assert len(triples) == 3
    assert not any(
        value is not None and math.isnan(value)
        for _, score, conf in triples
        for value in (score, conf)
    )


# ---------------------------------------------------------------------------
# Every concrete plan-node class on every strategy
# ---------------------------------------------------------------------------


def concrete_plan_node_classes() -> set[str]:
    """Names of the package's concrete PlanNode subclasses, found live.

    Only classes defined in ``repro`` modules count, and a leading ``_``
    marks an abstract base (``_SetOperation``) or a private helper.
    """
    found: set[str] = set()
    pending = [PlanNode]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.split(".")[0] == "repro" and not sub.__name__.startswith("_"):
                found.add(sub.__name__)
    return found


def _movies_rows():
    table = MOVIE_DB.table("MOVIES")
    return Materialized(table.schema, table.rows, "MOVIES")


#: One plan per node class, each scored by a prefer so every strategy's
#: preference-aware dispatch, not only the native engine, sees the node.
NODE_SAMPLES = {
    "Relation": Prefer(Relation("MOVIES"), [RECENT]),
    "Materialized": Prefer(_movies_rows(), [RECENT]),
    "Select": Select(
        Prefer(Select(Relation("MOVIES"), cmp("MOVIES.duration", "<", 125)), [RECENT]),
        cmp("conf", ">=", 0.2),
    ),
    "Project": Project(Prefer(Relation("MOVIES"), [RECENT]), ["MOVIES.title"]),
    "Join": Prefer(_movies_genres(Prefer(Relation("MOVIES"), [RECENT])), [COMEDY]),
    "LeftJoin": Prefer(
        LeftJoin(
            Relation("MOVIES"),
            Relation("GENRES"),
            natural_join_condition(MOVIE_DB.catalog, Relation("MOVIES"), Relation("GENRES")),
        ),
        [COMEDY],
    ),
    "Union": Prefer(_movies_union(), [DIRECTOR]),
    "Intersect": Prefer(
        Intersect(
            Prefer(Select(Relation("MOVIES"), cmp("MOVIES.year", ">=", 2005)), [RECENT]),
            Select(Relation("MOVIES"), cmp("MOVIES.duration", "<", 125)),
        ),
        [DIRECTOR],
    ),
    "Difference": Prefer(
        Difference(
            Select(Relation("MOVIES"), cmp("MOVIES.year", ">=", 2000)),
            Select(Relation("MOVIES"), eq("MOVIES.d_id", 1)),
        ),
        [RECENT],
    ),
    "Prefer": Prefer(Relation("MOVIES"), [RECENT, DIRECTOR]),
    "TopK": TopK(Prefer(Relation("MOVIES"), [RECENT, DIRECTOR]), 3, "score"),
}


def test_node_samples_cover_every_concrete_plan_node_class():
    assert set(NODE_SAMPLES) == concrete_plan_node_classes()
    for name, plan in NODE_SAMPLES.items():
        assert any(type(node).__name__ == name for node in plan.walk()), name



def test_node_census_skips_foreign_and_private_subclasses():
    # Plan-node subclasses defined outside the repro package (test doubles)
    # and underscore-named helpers are not nodes every strategy must run.
    class _TestOnlyNode(PlanNode):  # pragma: no cover - definition only
        pass

    class ForeignNode(PlanNode):  # pragma: no cover - definition only
        pass

    found = concrete_plan_node_classes()
    assert "_TestOnlyNode" not in found
    assert "ForeignNode" not in found
    assert found == set(NODE_SAMPLES)


@pytest.mark.parametrize("name", sorted(NODE_SAMPLES))
def test_every_plan_node_kind_runs_on_every_strategy(name):
    plan = NODE_SAMPLES[name]
    reference = MOVIE_ENGINE.run(plan, "reference")
    for strategy in STRATEGIES:
        for columnar in (False, True):
            result = MOVIE_ENGINE.run(plan, strategy, columnar=columnar)
            assert_identical(
                reference,
                result,
                exact=False,
                context=f"{name} (columnar={columnar})",
                labels=("reference", strategy),
            )


# ---------------------------------------------------------------------------
# Malformed plans: one answer or one typed error across strategies
# ---------------------------------------------------------------------------

P_YEAR = Preference("p_year", "MOVIES", cmp("year", ">=", 2005), 0.8, 0.9)
P_MID = Preference("p_mid", "MOVIES", eq("m_id", 1), 1.0, 1.0)

#: Plans breaking a precondition of the paper's rewrite properties or of
#: name resolution.  Some are legal and have one answer, the rest must fail
#: the same typed way everywhere, whichever step of a strategy notices.
MALFORMED_PLANS = {
    "unknown-relation": Relation("NO_SUCH_TABLE"),
    "unknown-relation-under-select": Project(
        Select(Relation("NO_SUCH_TABLE"), cmp("year", ">", 2000)), ["title"]
    ),
    "project-unknown-attribute": Project(Relation("MOVIES"), ["title", "no_such_attr"]),
    "join-on-score": Join(Relation("MOVIES"), Relation("GENRES"), cmp("score", ">=", 0.5)),
    # The natural join keeps both d_id copies: a bare d_id is ambiguous,
    # even where an optimizer would push the selection to one side.
    "bare-common-column-over-join": Select(
        Join(
            Relation("MOVIES"),
            Relation("DIRECTORS"),
            natural_join_condition(MOVIE_DB.catalog, Relation("MOVIES"), Relation("DIRECTORS")),
        ),
        eq("d_id", 1),
    ),
    "score-select-below-prefer": Prefer(
        Select(Prefer(Relation("MOVIES"), [P_YEAR]), cmp("score", ">=", 0.5)), [P_MID]
    ),
    "topk-below-prefer": Prefer(TopK(Prefer(Relation("MOVIES"), [P_YEAR]), 3), [P_MID]),
    "prefer-on-wrong-input": Prefer(Relation("DIRECTORS"), [P_YEAR]),
    "incompatible-union": Union(Relation("MOVIES"), Relation("DIRECTORS")),
    "conflicting-overrides": Prefer(
        Prefer(Relation("MOVIES"), [P_YEAR], F_MAX), [P_MID], F_MIN
    ),
    "override-against-query-default": Prefer(Relation("MOVIES"), [P_YEAR], F_MAX),
}


def _outcome(plan, strategy, columnar):
    try:
        return canonical_multiset(MOVIE_ENGINE.run(plan, strategy, columnar=columnar))
    except ReproError as err:
        return type(err)


@pytest.mark.parametrize("name", sorted(MALFORMED_PLANS))
def test_malformed_plans_answer_or_fail_alike(name):
    plan = MALFORMED_PLANS[name]
    expected = _outcome(plan, "reference", False)
    for strategy in STRATEGIES:
        for columnar in (False, True):
            outcome = _outcome(plan, strategy, columnar)
            if isinstance(expected, Counter) and isinstance(outcome, Counter):
                if outcome != expected:
                    raise AssertionError(
                        f"{strategy} (columnar={columnar}) diverged on {name}\n"
                        + diff_report(expected, outcome, ("reference", strategy))
                    )
            else:
                assert outcome == expected, f"{strategy} (columnar={columnar}) on {name}"


# ---------------------------------------------------------------------------
# Prefer runs stay in normal form
# ---------------------------------------------------------------------------


def test_corpus_plans_keep_prefer_runs_normal():
    from repro.plan.analysis import qualify_preferences

    corpus = {f"generated-{seed}": generated_plan(seed) for seed in range(50)}
    for plans in (OVERRIDE_PLANS, PREFER_PATH_PLANS, NODE_SAMPLES, MALFORMED_PLANS):
        corpus.update(plans)
    for name, plan in corpus.items():
        assert prefer_runs_normal(plan), name
        try:
            optimize_keeping_runs_normal(
                qualify_preferences(plan, MOVIE_DB.catalog), MOVIE_DB.catalog
            )
        except ReproError:
            assert name in MALFORMED_PLANS, name


def test_compiled_sql_keeps_prefer_runs_normal(imdb_tiny, dblp_tiny):
    queries = [(q.name, q.session(imdb_tiny if q.dataset == "imdb" else dblp_tiny), q.sql)
               for q in all_queries()]
    session = Session(MOVIE_DB)
    queries += [(sql, session, sql) for sql in SETOP_QUERIES.values()]
    queries.append((
        "run",
        session,
        "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING "
        "(year >= 2005) SCORE 0.5, (genre = 'Drama') SCORE 0.7, "
        "(duration < 125) SCORE 0.4 TOP 3 BY score",
    ))
    for name, owner, sql in queries:
        plan = owner.compile(sql).plan
        assert prefer_runs_normal(plan), name
        optimize_keeping_runs_normal(owner.engine.prepare(plan), owner.db.catalog)

