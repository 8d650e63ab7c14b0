"""The block memo's contract: a hit answers and bills exactly like a cold run.

``Database.execute`` memoizes every preference-free block a strategy
delegates to the native engine, for one data version (see
:mod:`repro.engine.blockmemo`).  These tests pin what makes that safe: the
same answer and the same charges, fresh result lists, version and
statistics discipline, the two bypasses and the row budget.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, DataType
from repro.engine.blockmemo import range_family
from repro.engine.database import use_query_cost
from repro.engine.expressions import And, Attr, Comparison, cmp
from repro.engine.iosim import CostModel
from repro.errors import ResourceExhausted
from repro.obs import Tracer, use_tracer
from repro.plan.builder import scan
from repro.plan.nodes import Materialized
from repro.query.session import Session
from repro.resilience import QueryGuard, RetryPolicy
from repro.serve.net.client import PreferenceClient
from repro.serve.net.server import NetServer, serve_in_thread
from repro.serve.server import PreferenceServer

from tests.conformance import assert_identical

SQL = (
    "SELECT id, label FROM T NATURAL JOIN U WHERE w >= 60 "
    "PREFERRING (k = 1) SCORE 0.8 ON T, (label = 'l2') SCORE 0.5 ON U "
    "TOP 5 BY score"
)
STRATEGIES = ("gbu", "ftp", "plugin-shared")
ON_K = Comparison("=", Attr("T.k"), Attr("U.k"))


def _db() -> Database:
    """T ⋈ U plus a PAD table, so the join's block fits the row budget."""
    db = Database()
    db.create_table(
        "T", [("id", DataType.INT), ("k", DataType.INT), ("w", DataType.FLOAT)],
        primary_key=["id"],
    )
    db.create_table("U", [("k", DataType.INT), ("label", DataType.TEXT)], primary_key=["k"])
    db.create_table("PAD", [("id", DataType.INT)], primary_key=["id"])
    db.insert_many("U", [(k, f"l{k}") for k in range(4)])
    db.insert_many("T", [(i, i % 4, float(i)) for i in range(80)])
    db.insert_many("PAD", [(i,) for i in range(200)])
    db.analyze()
    return db


def _block():
    return scan("T").select(cmp("w", ">=", 60.0)).join(scan("U"), on=ON_K).build()


def _warm(db: Database, plan) -> None:
    """Run *plan* cold twice: the second run stores its block."""
    for _ in range(2):
        db.execute(plan)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hit_charges_what_the_cold_run_charged(strategy):
    db = _db()
    session = Session(db)
    first = session.execute(SQL, strategy=strategy)
    assert len(db.blocks) == 0  # asked once: only the key is kept
    cold = session.execute(SQL, strategy=strategy)
    assert db.blocks.stats()["hits"] == 0 and len(db.blocks) > 0
    hit = session.execute(SQL, strategy=strategy)
    assert db.blocks.stats()["hits"] > 0
    for run in (cold, hit):
        assert run.stats.cost == first.stats.cost
        assert run.stats.operators == first.stats.operators
        assert_identical(first, run)
    assert_identical(session.execute(SQL, strategy="reference"), hit, exact=False)


def test_a_tuple_budget_that_trips_cold_trips_on_a_hit():
    db = _db()
    session = Session(db)
    probe = QueryGuard()
    session.execute(SQL, strategy="gbu", guard=probe)
    charged = probe.tuples
    db.forget_blocks()
    with pytest.raises(ResourceExhausted):
        session.execute(SQL, strategy="gbu", guard=QueryGuard(max_tuples=charged - 1))
    for _ in range(2):
        session.execute(SQL, strategy="gbu")  # memo warm
    hits = db.blocks.hits
    with pytest.raises(ResourceExhausted):
        session.execute(SQL, strategy="gbu", guard=QueryGuard(max_tuples=charged - 1))
    assert db.blocks.hits > hits
    exact = QueryGuard(max_tuples=charged)
    session.execute(SQL, strategy="gbu", guard=exact)
    assert exact.tuples == charged


def test_a_returned_result_is_the_callers_own():
    db = _db()
    _, expected = db.execute(_block())
    _, stored = db.execute(_block())
    stored.append(("bogus",))
    _, hit = db.execute(_block())
    assert db.blocks.hits == 1
    assert hit == expected
    hit.clear()
    assert db.execute(_block())[1] == expected


def test_a_hit_opens_a_native_memo_span():
    db = _db()
    _warm(db, _block())
    tracer = Tracer()
    with use_tracer(tracer):
        _, rows = db.execute(_block())
    (span,) = tracer.root.children
    assert span.name == "native.memo"
    assert span.counters["rows_out"] == len(rows)


def test_an_older_snapshot_bypasses_a_newer_memo():
    db = _db()
    old = db.snapshot()
    _, before = old.execute(_block())
    db.insert("T", (80, 2, 99.0))
    _warm(db, _block())
    _, after = db.execute(_block())
    assert len(after) == len(before) + 1
    assert db.blocks.version == db.version and db.blocks.hits == 1
    stats = db.blocks.stats()
    for _ in range(2):
        assert old.execute(_block())[1] == before
    assert db.blocks.stats() == stats  # neither read nor written
    assert db.execute(_block())[1] == after


def test_a_newer_version_drops_older_entries():
    db = _db()
    _warm(db, _block())
    assert len(db.blocks) == 1
    db.insert("PAD", (200,))
    _warm(db, scan("U").build())
    assert len(db.blocks) == 1 and db.blocks.rows == 4


def test_snapshots_of_one_version_share_the_memo():
    db = _db()
    db.execute(_block())
    snap = db.snapshot()
    assert snap.blocks is db.blocks
    snap.execute(_block())  # the second cold run at this version stores it
    db.execute(_block())
    assert db.blocks.hits == 1


@pytest.mark.parametrize("forget", ["analyze", "forget_blocks"])
def test_analyze_and_forget_blocks_give_a_fresh_memo(forget):
    db = _db()
    _warm(db, _block())
    snap = db.snapshot()
    shared = db.blocks
    getattr(db, forget)()
    assert db.blocks is not shared and len(db.blocks) == 0
    assert db.blocks.stats() == {
        "hits": 0, "misses": 0, "evictions": 0, "rows": 0,
        "plan_hits": 0, "plan_misses": 0, "plan_evictions": 0, "plan_entries": 0,
    }
    _warm(db, _block())
    assert db.blocks.misses == 2 and db.blocks.hits == 0
    assert snap.blocks is shared  # an earlier snapshot keeps its memo


def test_a_materialized_leaf_bypasses_the_memo():
    db = _db()
    schema, rows = db.execute(scan("U").build())
    before = db.blocks.stats()
    plan = scan("T").join(Materialized(schema, rows), on=ON_K).build()
    for _ in range(3):
        db.execute(plan)
    assert db.blocks.stats() == before


def test_rows_stay_within_the_budget_in_lru_order():
    db = _db()
    total = sum(len(table) for table in db.catalog.tables())
    blocks = [scan("PAD").select(cmp("id", "<", n)).build() for n in (30, 20, 15)]
    for block in blocks:
        _warm(db, block)
    assert db.blocks.budget == total // 4 == 71
    assert db.blocks.rows == 65 and len(db.blocks) == 3
    db.execute(blocks[0])  # touch: the 20-row block is now least recent
    _warm(db, scan("PAD").select(cmp("id", "<", 10)).build())
    assert db.blocks.rows == 55 and db.blocks.evictions == 1
    hits = db.blocks.hits
    db.execute(blocks[0])
    db.execute(blocks[2])
    assert db.blocks.hits == hits + 2
    _warm(db, blocks[1])
    assert db.blocks.hits == hits + 2  # evicted, so two misses
    assert db.blocks.rows == 65 and db.blocks.evictions == 2
    _warm(db, scan("PAD").select(cmp("id", "<", 72)).build())
    assert db.blocks.rows == 65 and len(db.blocks) == 3  # over budget: not stored


def test_keys_asked_once_count_against_the_budget():
    db = _db()
    _warm(db, scan("PAD").select(cmp("id", "<", 65)).build())
    assert db.blocks.rows == 65
    for n in range(6):  # six keys fill the budget: 65 + 6 = 71
        db.execute(scan("PAD").select(cmp("id", "=", n)).build())
    assert len(db.blocks) == 1 and db.blocks.evictions == 0
    db.execute(scan("PAD").select(cmp("id", "=", 6)).build())
    assert len(db.blocks) == 0 and db.blocks.rows == 0  # the LRU block made room
    assert db.blocks.evictions == 1


def test_the_stats_op_reports_the_block_memo():
    server = PreferenceServer(_db())
    handle = serve_in_thread(NetServer(server, cache=False, tenant_quota=None))
    try:
        with PreferenceClient(
            "127.0.0.1", handle.port, deadline_s=15.0, retry=RetryPolicy(attempts=1)
        ) as client:
            before = client.stats()["block_memo"]
            for user in ("alice", "bob", "carol"):  # three users, one block
                client.query(user, SQL)
            after = client.stats()["block_memo"]
    finally:
        handle.stop()
        handle.thread.join(10.0)
    assert set(after) == {
        "hits", "misses", "evictions", "rows",
        "plan_hits", "plan_misses", "plan_evictions", "plan_entries",
    }
    assert after["misses"] > before["misses"]
    assert after["hits"] > before["hits"]
    assert 0 < after["rows"] <= server.db.blocks.budget


# -- range families ------------------------------------------------------------


def _ranged(bound, op=">="):
    """T ⋈ U under ``w op bound``; w is not in the output."""
    return (
        scan("T").select(cmp("w", op, bound)).join(scan("U"), on=ON_K)
        .project(["id", "label"]).build()
    )


def _ranged_sql(bound, op=">="):
    return SQL.replace("w >= 60", f"w {op} {bound}")


def _charged(db: Database, plan, guard=None):
    """Run *plan* on *db* under a fresh cost model; its counters and rows."""
    cost = CostModel(guard=guard)
    with use_query_cost(db, cost):
        _, rows = db.execute(plan)
    return cost, rows


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_subsumed_hit_returns_what_a_cold_twin_returns(strategy):
    db = _db()
    session = Session(db)
    for _ in range(2):  # the second cold run stores the family at w >= 40
        session.execute(_ranged_sql(40), strategy=strategy)
    for bound in (60, 41, 55, 40):
        hits, subsumed = db.blocks.hits, db.blocks.subsumed
        hit = session.execute(_ranged_sql(bound), strategy=strategy)
        assert db.blocks.hits > hits
        assert db.blocks.subsumed - subsumed == (bound != 40)
        cold = Session(_db()).execute(_ranged_sql(bound), strategy=strategy)
        assert_identical(cold, hit, exact=True)
        reference = session.execute(_ranged_sql(bound), strategy="reference")
        assert_identical(reference, hit, exact=False)


def test_a_subsumed_hit_bills_the_stored_run():
    db = _db()
    stored, _ = _charged(db, _ranged(40))
    _warm(db, _ranged(40))
    narrower, _ = _charged(_db(), _ranged(60))
    assert narrower != stored
    hit, rows = _charged(db, _ranged(60))
    assert db.blocks.subsumed == 1
    assert hit == stored
    assert sorted(rows) == sorted(_charged(_db(), _ranged(60))[1])


def test_a_tuple_budget_that_trips_on_the_stored_run_trips_on_a_subsumed_hit():
    db = _db()
    probe = QueryGuard()
    _charged(db, _ranged(40), probe)
    charged = probe.tuples
    with pytest.raises(ResourceExhausted):
        _charged(_db(), _ranged(40), QueryGuard(max_tuples=charged - 1))
    db.execute(_ranged(40))  # stored
    with pytest.raises(ResourceExhausted):
        _charged(db, _ranged(60), QueryGuard(max_tuples=charged - 1))
    assert db.blocks.subsumed == 1
    exact = QueryGuard(max_tuples=charged)
    _charged(db, _ranged(60), exact)
    assert exact.tuples == charged and db.blocks.subsumed == 2


def test_a_wider_bound_replaces_the_entry():
    db = _db()
    _warm(db, _ranged(60))
    assert len(db.blocks) == 1 and db.blocks.rows == 20
    misses = db.blocks.misses
    _, rows = db.execute(_ranged(40))  # wider: runs cold and replaces
    assert db.blocks.misses == misses + 1
    assert len(db.blocks) == 1 and db.blocks.rows == len(rows) == 40
    _, rows = db.execute(_ranged(50))
    assert db.blocks.subsumed == 1 and len(rows) == 30
    _, rows = db.execute(_ranged(60))
    assert db.blocks.subsumed == 2 and len(rows) == 20
    assert db.blocks.misses == misses + 1


@pytest.mark.parametrize(
    "op, stored, narrower, wider",
    [(">=", 60.0, 70.0, 50.0), (">", 60.0, 70.0, 50.0),
     ("<=", 20.0, 10.0, 30.0), ("<", 20.0, 10.0, 30.0)],
)
def test_each_operator_keeps_its_own_family(op, stored, narrower, wider):
    db = _db()
    cold = _db()
    _warm(db, _ranged(stored, op))
    for bound, subsumed in ((stored, 0), (narrower, 1)):
        _, rows = db.execute(_ranged(bound, op))
        assert db.blocks.subsumed == subsumed
        assert sorted(rows) == sorted(cold.execute(_ranged(bound, op))[1])
    # The same bound under the strict or non-strict twin: another family.
    twin = {">=": ">", ">": ">=", "<=": "<", "<": "<="}[op]
    same = len(db.execute(_ranged(stored, op))[1])
    hits = db.blocks.hits
    _, rows = db.execute(_ranged(stored, twin))
    assert db.blocks.hits == hits
    assert sorted(rows) == sorted(cold.execute(_ranged(stored, twin))[1])
    assert len(rows) == same + (1 if "=" in twin else -1)  # one row has w == stored
    _, rows = db.execute(_ranged(wider, op))
    assert db.blocks.hits == hits  # the wider bound ran cold
    assert sorted(rows) == sorted(cold.execute(_ranged(wider, op))[1])


def test_a_bound_of_another_type_falls_back_to_exact_keys():
    db = _db()

    def block(bound):
        # ``k = 9`` matches no row, so the range test never compares.
        return (
            scan("T").select(And(cmp("k", "=", 9), cmp("w", ">=", bound)))
            .join(scan("U"), on=ON_K).project(["id", "label"]).build()
        )

    _warm(db, block(40))
    assert range_family(block("x"), True).key == range_family(block(40), True).key
    _warm(db, block("x"))
    assert len(db.blocks) == 2  # the family entry and the exact key
    hits = db.blocks.hits
    assert db.execute(block("x"))[1] == db.execute(block(50))[1] == []
    assert db.blocks.hits == hits + 2 and db.blocks.subsumed == 1


def test_no_family_forms_outside_select_project_and_inner_joins():
    ranged = scan("T").select(cmp("w", ">=", 40.0))
    u = scan("U")
    outside = [
        u.left_join(ranged, on=ON_K).project(["label"]).build(),
        ranged.project(["id"]).union(scan("PAD").project(["id"])).project(["id"]).build(),
        ranged.project(["id"]).intersect(scan("PAD").project(["id"])).project(["id"]).build(),
        ranged.project(["id"]).difference(scan("PAD").project(["id"])).project(["id"]).build(),
        ranged.build(),  # no root projection
        ranged.join(u, on=ON_K).build(),
        ranged.project(["id"]).project(["id"]).build(),  # a projection drops w
    ]
    for plan in outside:
        assert range_family(plan, True) is None, plan.label()
    assert range_family(ranged.project(["id"]).build(), True) is not None
    db = _db()
    plan = scan("U").join(Materialized(*db.execute(scan("T").build())), on=ON_K)
    plan = plan.select(cmp("w", ">=", 40.0)).project(["label"]).build()
    before = db.blocks.stats()
    for _ in range(3):
        db.execute(plan)
    assert db.blocks.stats() == before and db.blocks.subsumed == 0


def test_a_subsumed_hit_opens_a_native_memo_span():
    db = _db()
    _warm(db, _ranged(40))
    tracer = Tracer()
    with use_tracer(tracer):
        _, rows = db.execute(_ranged(60))
        db.execute(_ranged(40))
    subsumed, exact = tracer.root.children
    assert subsumed.name == exact.name == "native.memo"
    assert subsumed.counters["rows_out"] == len(rows) == 20
    assert subsumed.attrs == {"subsumed": True, "bound": 40}
    assert exact.attrs == {"subsumed": False, "bound": 40}


def test_the_stats_op_reports_subsumed_hits():
    server = PreferenceServer(_db())
    handle = serve_in_thread(NetServer(server, cache=False, tenant_quota=None))
    try:
        with PreferenceClient(
            "127.0.0.1", handle.port, deadline_s=15.0, retry=RetryPolicy(attempts=1)
        ) as client:
            for user, bound in (("alice", 40), ("bob", 40), ("carol", 60)):
                client.query(user, _ranged_sql(bound))
            stats = client.stats()
    finally:
        handle.stop()
        handle.thread.join(10.0)
    assert stats["block_memo_subsumed"] == server.db.blocks.subsumed >= 1
    assert stats["block_memo"]["hits"] >= stats["block_memo_subsumed"]


# -- per-entry indexes ---------------------------------------------------------


def _located(probe, rows, position, keys):
    """Row position → value for *keys* at one column, checked against *rows*."""
    found = probe.locate((position,), {(key,): key for key in keys})
    for at, key in found.items():
        assert rows[at][position] == key
    return found


def test_an_entry_builds_its_index_once_and_later_hits_reuse_it():
    db = _db()
    _warm(db, _block())
    _, rows, probe = db.execute_probed(_block())
    assert probe is not None and probe.block.indexes == {}
    first = _located(probe, rows, 1, [1, 2])
    index = probe.block.indexes[(1,)]
    assert sorted(first) == [i for i, row in enumerate(rows) if row[1] in (1, 2)]
    _, again, later = db.execute_probed(_block())
    assert later.block is probe.block and later.block.indexes[(1,)] is index
    assert _located(later, again, 1, [1, 2]) == first
    assert list(probe.block.indexes) == [(1,)]  # only the positions probed


def test_a_cold_run_and_a_materialized_leaf_have_no_probe():
    db = _db()
    assert db.execute_probed(_block())[2] is None
    schema, rows = db.execute(scan("U").build())
    assert db.execute_probed(Materialized(schema, rows))[2] is None


@pytest.mark.parametrize("change", ["write", "analyze"])
def test_the_index_dies_with_its_entry(change):
    db = _db()
    _warm(db, _block())
    _, rows, probe = db.execute_probed(_block())
    _located(probe, rows, 1, [1])
    if change == "write":
        db.insert("T", (80, 1, 99.0))
    else:
        db.analyze()
    assert db.execute_probed(_block())[2] is None  # cold at the new state
    db.execute(_block())  # stores it
    _, rows, fresh = db.execute_probed(_block())
    assert fresh is not None and fresh.block is not probe.block
    assert fresh.block.indexes == {}
    assert sorted(_located(fresh, rows, 1, [1])) == [
        i for i, row in enumerate(rows) if row[1] == 1
    ]


def test_threads_probing_one_entry_at_once_agree():
    db = _db()
    _warm(db, _block())
    _, rows, probe = db.execute_probed(_block())
    barrier = threading.Barrier(4)
    answers = []

    def probe_it():
        barrier.wait()
        answers.append(probe.locate((1,), {(1,): "a", (3,): "b"}))

    threads = [threading.Thread(target=probe_it) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(answers) == 4 and all(answer == answers[0] for answer in answers)
    assert answers[0] == {
        i: "a" if row[1] == 1 else "b" for i, row in enumerate(rows) if row[1] in (1, 3)
    }
    assert probe.locate((1,), {(1,): "a", (3,): "b"}) == answers[0]


def test_a_replaced_family_entry_serves_no_stale_index():
    db = _db()
    _warm(db, _ranged(60))
    _, rows, probe = db.execute_probed(_ranged(70))  # subsumed: a cut of w >= 60
    assert db.blocks.subsumed == 1
    _located(probe, rows, 0, range(60, 80))
    db.execute(_ranged(40))  # a wider bound replaces the entry
    _, rows, wider = db.execute_probed(_ranged(50))
    assert db.blocks.subsumed == 2
    assert wider.block is not probe.block and wider.block.indexes == {}
    found = _located(wider, rows, 0, range(80))
    assert sorted(found) == list(range(len(rows)))
    assert sorted(rows) == sorted(_charged(_db(), _ranged(50))[1])


def test_many_narrower_bounds_leave_the_entry_as_it_was():
    db = _db()
    _warm(db, _ranged(20.0))
    block = db.execute_probed(_ranged(20.0))[2].block
    for step in range(1, 200):  # float bounds from a wide domain
        bound = 20.0 + step * 0.29
        _, rows, probe = db.execute_probed(_ranged(bound))
        assert probe.block is block
        found = _located(probe, rows, 0, range(80))
        assert sorted(found) == list(range(len(rows)))
        assert sorted(rows) == sorted(_charged(_db(), _ranged(bound))[1])
    assert db.blocks.subsumed == 199
    assert list(block.indexes) == [(0,)]  # one index, whatever the bounds
    assert vars(block).keys() == {
        "schema", "rows", "cost", "tuples", "bound", "values", "indexes"
    }
