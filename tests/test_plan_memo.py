"""The plan memo's keys: prepared and optimized plans reused at one data version.

``ExecutionEngine.prepare`` and ``PreferenceOptimizer.optimize`` keep their
output in ``db.blocks`` under the input plan's value; the optimizer's key
adds its ``OptimizerConfig`` (see :mod:`repro.engine.blockmemo`).  These
tests pin what the key tells apart, what still hits, the two bypasses and
the cap.
"""

from __future__ import annotations

from repro.core.context import ContextualPreference
from repro.core.preference import Preference
from repro.engine.blockmemo import PLAN_CAP, BlockMemo
from repro.engine.expressions import Attr, Comparison, cmp, eq
from repro.obs import Tracer
from repro.optimizer import OptimizerConfig, optimize
from repro.pexec.engine import ExecutionEngine
from repro.plan.analysis import prepare_plan
from repro.plan.builder import scan
from repro.plan.nodes import Materialized
from repro.query.session import Session

from tests.conftest import build_movie_db

SQL = (
    "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES NATURAL JOIN DIRECTORS "
    "WHERE year >= 2000 PREFERRING p TOP 3 BY score"
)
COMEDY = Preference("p", "GENRES", eq("genre", "Comedy"), 0.8, 0.9)
ON_M_ID = Comparison("=", Attr("GENRES.m_id"), Attr("MOVIES.m_id"))


def _session(db, *preferences, **kwargs) -> Session:
    session = Session(db, **kwargs)
    session.register_all(preferences or (COMEDY,))
    return session


def _plan_counts(db) -> tuple[int, int]:
    stats = db.blocks.stats()
    return stats["plan_hits"], stats["plan_misses"]


def _cold_plan(session: Session, sql: str):
    """What prepare and optimize give *sql* on *session*'s database with
    no memo."""
    catalog = session.db.catalog
    prepared = prepare_plan(session.compile(sql).plan, catalog)
    return optimize(prepared, catalog, session.engine.optimizer.config)


def test_a_repeated_query_hits_prepare_and_optimize():
    db = build_movie_db()
    session = _session(db)
    first = session.execute(SQL)
    assert _plan_counts(db) == (0, 2)
    second = session.execute(SQL)
    assert _plan_counts(db) == (2, 2)
    assert second.executed_plan is first.executed_plan
    assert first.executed_plan == _cold_plan(session, SQL)
    assert list(second.presented().triples()) == list(first.presented().triples())


def test_prepare_and_optimize_spans_say_hit_or_miss():
    db = build_movie_db()
    session = _session(db)
    traced = [session.execute(SQL, tracer=Tracer()).stats.trace for _ in range(2)]
    for trace, memo in zip(traced, ("miss", "hit")):
        assert trace.find("prepare").attrs["memo"] == memo
        assert trace.find("optimize").attrs["memo"] == memo
    # A hit runs no rule; a miss records every rule.
    assert traced[0].find_all("optimize.rule") and not traced[1].find_all("optimize.rule")


def test_two_optimizer_configs_at_one_version_get_their_own_plans():
    db = build_movie_db()
    full = _session(db)
    none = _session(db, optimizer_config=OptimizerConfig.none())
    plans = [full.execute(SQL).executed_plan, none.execute(SQL).executed_plan]
    assert plans[0] != plans[1]
    assert plans == [_cold_plan(full, SQL), _cold_plan(none, SQL)]
    assert _plan_counts(db) == (1, 3)  # the configs share the prepared plan
    assert [full.execute(SQL).executed_plan, none.execute(SQL).executed_plan] == plans
    assert _plan_counts(db) == (5, 3)


def test_reregistering_a_preference_with_new_constants_misses():
    db = build_movie_db()
    session = _session(db)
    first = session.execute(SQL)
    session.unregister("p")
    session.register(Preference("p", "GENRES", eq("genre", "Comedy"), 0.3, 0.9))
    second = session.execute(SQL)
    assert _plan_counts(db) == (0, 4)
    assert second.executed_plan != first.executed_plan
    assert second.executed_plan == _cold_plan(session, SQL)
    assert 0.8 in {score for _, score, _ in first.presented().triples()}
    assert 0.3 in {score for _, score, _ in second.presented().triples()}


def test_set_context_toggles_a_contextual_preference_into_another_plan():
    db = build_movie_db()
    horror = Preference("q", "GENRES", eq("genre", "Horror"), 0.9, 0.9)
    session = Session(db)
    session.register(ContextualPreference(COMEDY, {"company": "alone"}))
    session.register(ContextualPreference(horror, {"company": "friends"}))
    sql = SQL.replace("PREFERRING p", "PREFERRING p, q")
    session.set_context(company="alone")
    alone = session.execute(sql).executed_plan
    session.set_context(company="friends")
    friends = session.execute(sql).executed_plan
    assert alone != friends
    assert _plan_counts(db) == (0, 4)
    assert friends == _cold_plan(session, sql)
    session.set_context(company="alone")
    assert session.execute(sql).executed_plan is alone
    assert _plan_counts(db) == (2, 4)


def test_a_using_clause_builds_a_fresh_engine_and_still_hits():
    db = build_movie_db()
    session = _session(db)
    sql = SQL.replace("TOP 3", "USING F_max TOP 3")
    first = session.execute(sql)
    second = session.execute(sql)
    assert _plan_counts(db) == (2, 2)
    assert second.executed_plan is first.executed_plan


def test_a_materialized_leaf_bypasses_the_plan_memo():
    db = build_movie_db()
    schema, rows = db.execute(scan("MOVIES").build())
    plan = (
        scan("GENRES").join(Materialized(schema, rows), on=ON_M_ID).prefer(COMEDY).build()
    )
    engine = ExecutionEngine(db)
    before = db.blocks.stats()
    for _ in range(2):
        engine.optimizer.optimize(engine.prepare(plan))
    assert db.blocks.stats() == before


def test_a_snapshot_older_than_the_memo_neither_reads_nor_writes_it():
    db = build_movie_db()
    old = db.snapshot()
    db.insert("MOVIES", (90, "Late", 2011, 100, 1))
    db.insert("GENRES", (90, "Comedy"))
    _session(db).execute(SQL)
    stats = db.blocks.stats()
    session = _session(old)
    for _ in range(2):
        assert session.execute(SQL).executed_plan == _cold_plan(session, SQL)
    assert db.blocks.stats() == stats
    assert _plan_counts(db) == (0, 2)


def test_a_write_or_analyze_drops_the_plans():
    db = build_movie_db()
    session = _session(db)
    session.execute(SQL)
    db.create_index("MOVIES", "year", kind="btree")
    session.execute(SQL)
    assert _plan_counts(db) == (0, 4) and db.blocks.stats()["plan_entries"] == 2
    db.analyze()
    assert db.blocks.stats()["plan_entries"] == 0
    session.execute(SQL)
    assert _plan_counts(db) == (0, 2)


def test_the_module_optimize_helper_keeps_no_memo():
    db = build_movie_db()
    session = _session(db)
    prepared = session.engine.prepare(session.compile(SQL).plan)
    before = db.blocks.stats()
    assert optimize(prepared, db.catalog) == optimize(prepared, db.catalog)
    assert db.blocks.stats() == before


def test_the_cap_evicts_the_least_recently_used_plan_first():
    catalog = build_movie_db().catalog
    memo = BlockMemo()
    keys = [("prepare", scan("MOVIES").select(cmp("year", ">=", y)).build())
            for y in range(PLAN_CAP + 1)]
    assert memo.plan(keys[0], 0, catalog) is None  # a miss moves it to version 0
    for key in keys[:PLAN_CAP]:
        memo.put_plan(key, 0, key[1])
    assert memo.plan(keys[0], 0, catalog) is keys[0][1]  # now the most recent
    memo.put_plan(keys[-1], 0, keys[-1][1])
    assert memo.stats()["plan_evictions"] == 1
    assert memo.stats()["plan_entries"] == PLAN_CAP
    assert memo.plan(keys[1], 0, catalog) is None  # the oldest untouched went
    assert memo.plan(keys[0], 0, catalog) is keys[0][1]
    assert memo.plan(keys[-1], 0, catalog) is keys[-1][1]
