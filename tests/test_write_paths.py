"""Every Database write path leaves the catalog's key maps exact.

Joins probe the indexes and primary-key maps the catalog maintains instead
of hashing the base relation per query, so an index or key map that drifts
from its table's rows silently changes join answers.  This property drives
any interleaving of the write paths, failing ones included, with snapshots
in between, and checks every structure against a rebuild from rows.

The same write paths, with ``analyze`` and drop + re-create mixed in, must
never let the block memo (:mod:`repro.engine.blockmemo`) answer from a
stale version: every gbu / ftp answer equals ``reference`` and a cold run,
and every prepared and optimized plan the memo hands out equals a cold
twin's (a stale join order would still answer right).
Range queries on ``MOVIES.year`` drive its range families the same way:
narrower, wider and repeated bounds answered from one stored block.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DataType
from repro.engine.index import HashIndex, build_index
from repro.engine.persist import load_csv_table
from repro.errors import ReproError
from repro.query.session import Session
from tests.conformance import assert_identical
from tests.conftest import examples

ids = st.integers(0, 12)
keys = st.one_of(st.none(), st.integers(0, 3))
batch = st.lists(st.tuples(ids, keys), max_size=4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.tuples(ids, keys)),
        st.tuples(st.just("insert_many"), batch),
        # The flag appends a row whose k does not parse, so the load fails.
        st.tuples(st.just("csv"), st.tuples(batch, st.booleans())),
        st.tuples(st.just("snapshot"), st.none()),
    ),
    max_size=14,
)


def _fresh_db() -> Database:
    db = Database()
    db.create_table("T", [("id", DataType.INT), ("k", DataType.INT)], primary_key=["id"])
    db.create_index("T", "k")
    db.create_index("T", "k", kind="btree")
    return db


def _contents(index):
    if isinstance(index, HashIndex):
        return index.buckets, index.null_rows
    return index._keys, index._rows


def _check(db: Database, expected: list) -> None:
    table = db.table("T")
    assert table.rows == expected
    for index in db.catalog.indexes_on("T"):
        assert _contents(index) == _contents(build_index(table, index.attrs, index.kind))
    for row in table.rows:
        assert table.get((row[0],)) is row
    for missing in set(range(13)) - {row[0] for row in table.rows}:
        assert table.get((missing,)) is None


def _apply(db: Database, op: str, arg, directory: str) -> None:
    if op == "insert":
        db.insert("T", arg)
    elif op == "insert_many":
        db.insert_many("T", arg)
    else:
        rows, unparseable = arg
        lines = [f"{i},{'' if k is None else k}" for i, k in rows]
        if unparseable:
            lines.append("0,not-an-int")
        path = os.path.join(directory, "t.csv")
        with open(path, "w") as handle:
            handle.write("\n".join(["id,k", *lines]) + "\n")
        load_csv_table(db, "T", path)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_interleaved_writes_keep_key_maps_exact(ops):
    db = _fresh_db()
    expected: list = []
    snapshots = []
    with tempfile.TemporaryDirectory() as directory:
        for op, arg in ops:
            if op == "snapshot":
                snapshots.append((db.snapshot(), list(expected)))
                continue
            rows = [arg] if op == "insert" else arg[0] if op == "csv" else arg
            version = db.version
            taken = {row[0] for row in expected}
            valid = len({i for i, _ in rows}) == len(rows) and not taken & {i for i, _ in rows}
            if op == "csv" and arg[1]:
                valid = False
            try:
                _apply(db, op, arg, directory)
            except (ReproError, ValueError):
                assert not valid
                assert db.version == version
            else:
                assert valid
                assert db.version == version + 1
                expected.extend(rows)
            _check(db, expected)
    for snap, captured in snapshots:
        _check(snap, captured)
    # A fork takes writes its origin never sees, frozen origin or not.
    for table in [db.table("T")] + [snap.table("T") for snap, _ in snapshots]:
        before = list(table.rows)
        fork = table.fork()
        fork.insert((99, 1))
        assert fork.get((99,)) == (99, 1)
        assert table.rows == before and table.get((99,)) is None


# -- the block memo under interleaved writes ----------------------------------

#: Both read the T ⋈ K block the memo keeps; the second filters it first.
QUERIES = (
    "SELECT id, name FROM T NATURAL JOIN K "
    "PREFERRING (k = 1) SCORE 0.8 ON T, (name = 'n2') SCORE 0.5 ON K",
    "SELECT id, name FROM T NATURAL JOIN K WHERE id >= 4 "
    "PREFERRING (k = 2) SCORE 0.6 ON T, (name = 'n1') SCORE 0.9 ON K TOP 3 BY score",
)
memo_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.tuples(ids, keys)),
        st.tuples(st.just("insert_many"), batch),
        st.tuples(st.just("create_index"), st.sampled_from(["hash", "btree"])),
        st.tuples(st.just("recreate"), st.none()),
        st.tuples(st.just("analyze"), st.none()),
        st.tuples(st.just("snapshot"), st.none()),
        st.tuples(
            st.just("query"),
            st.tuples(st.sampled_from(["gbu", "ftp"]), st.sampled_from(QUERIES)),
        ),
    ),
    max_size=16,
)


def _memo_db() -> Database:
    """T ⋈ K, plus a PAD table so a whole join fits the memo's row budget."""
    db = _fresh_db()
    db.create_table("K", [("k", DataType.INT), ("name", DataType.TEXT)], primary_key=["k"])
    db.insert_many("K", [(k, f"n{k}") for k in range(4)])
    db.create_table("PAD", [("id", DataType.INT)], primary_key=["id"])
    db.insert_many("PAD", [(i,) for i in range(64)])
    return db


def _cold_twin(db: Database) -> Database:
    """A snapshot of *db*'s version with a memo of its own (cold runs)."""
    twin = db.snapshot()
    twin.forget_blocks()
    return twin


def _answers_like_reference_and_cold(db: Database, cold: Database, strategy: str, sql: str):
    """Ask *db* three times (the second run stores a block that fits, the
    third reads it) and compare every answer with ``reference`` and with
    *cold*'s, and every executed plan with *cold*'s."""
    expected = Session(cold).execute(sql, strategy=strategy)
    oracle = Session(db).execute(sql, strategy="reference")
    for _ in range(3):
        answer = Session(db).execute(sql, strategy=strategy)
        assert_identical(expected, answer)
        assert_identical(oracle, answer, exact=False)
        assert answer.executed_plan == expected.executed_plan


def _plans(db: Database, sql: str):
    """The prepared and the optimized plan the engine gives *sql* on *db*."""
    session = Session(db)
    prepared = session.engine.prepare(session.compile(sql).plan)
    return prepared, session.engine.optimizer.optimize(prepared)


def _plans_like_cold(db: Database) -> None:
    """Ask *db* for each query's plans twice (the second from the memo)
    and compare them with a cold twin's."""
    for sql in QUERIES:
        expected = _plans(_cold_twin(db), sql)
        for _ in range(2):
            assert _plans(db, sql) == expected


@settings(max_examples=120, deadline=None)
@given(memo_operations)
def test_interleaved_writes_and_queries_match_reference_and_cold_runs(ops):
    db = _memo_db()
    snapshots = []
    for op, arg in ops:
        if op == "query":
            _answers_like_reference_and_cold(db, _cold_twin(db), *arg)
            assert db.blocks.rows <= db.blocks.budget
        elif op == "snapshot":
            snapshots.append((db.snapshot(), _cold_twin(db)))
        elif op == "analyze":
            db.analyze()
        elif op == "recreate":
            db.drop_table("T")
            db.create_table(
                "T", [("id", DataType.INT), ("k", DataType.INT)], primary_key=["id"]
            )
        else:
            try:
                if op == "create_index":
                    db.create_index("T", "k", kind=arg)
                else:
                    _apply(db, op, arg, "")
            except ReproError:
                pass
        if op != "query":
            _plans_like_cold(db)
    # Older snapshots answer from their own version, never from the memo
    # the newest version holds, and never leave their blocks in it.
    for sql in QUERIES:
        _answers_like_reference_and_cold(db, _cold_twin(db), "gbu", sql)
    for snap, cold in reversed(snapshots):
        for sql in QUERIES:
            _answers_like_reference_and_cold(snap, cold, "gbu", sql)
    for sql in QUERIES:
        _answers_like_reference_and_cold(db, _cold_twin(db), "gbu", sql)
    assert db.blocks.stats()["plan_hits"] > 0


# -- range families under interleaved writes ------------------------------------

years = st.one_of(st.none(), st.integers(1995, 2012))
bounds = st.one_of(st.sampled_from([2000, 2003, 2005]), st.integers(1994, 2013))
range_operations = st.lists(
    st.one_of(
        # One operator, one to three bounds asked in turn.
        st.tuples(
            st.just("query"),
            st.tuples(
                st.sampled_from(["gbu", "ftp"]), st.sampled_from([">=", ">", "<=", "<"]),
                st.lists(bounds, min_size=1, max_size=3),
            ),
        ),
        # Movie ids from 1 to 12 exist; a larger one inserts, with its genre.
        st.tuples(st.just("insert"), st.tuples(st.integers(10, 16), years)),
        st.tuples(st.just("analyze"), st.none()),
        st.tuples(st.just("forget_blocks"), st.none()),
        st.tuples(st.just("snapshot"), st.none()),
    ),
    max_size=14,
)


def _movies_db() -> Database:
    """MOVIES ⋈ GENRES, some years NULL, plus a PAD table for the budget."""
    db = Database()
    db.create_table(
        "MOVIES", [("m_id", DataType.INT), ("title", DataType.TEXT), ("year", DataType.INT)],
        primary_key=["m_id"],
    )
    db.create_table(
        "GENRES", [("m_id", DataType.INT), ("genre", DataType.TEXT)],
        primary_key=["m_id", "genre"],
    )
    db.create_table("PAD", [("id", DataType.INT)], primary_key=["id"])
    db.insert_many("MOVIES", [
        (m, f"m{m}", None if m % 5 == 0 else 1996 + (m * 7) % 16) for m in range(1, 13)
    ])
    db.insert_many("GENRES", [(m, g) for m in range(1, 13) for g in ("g1", "g2")[: 1 + m % 2]])
    db.insert_many("PAD", [(i,) for i in range(120)])
    db.analyze()
    return db


def _range_sql(op: str, bound: int) -> str:
    return (
        "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES "
        f"WHERE year {op} {bound} "
        "PREFERRING (genre = 'g1') SCORE 0.8 ON GENRES, (m_id = 3) SCORE 0.6 ON MOVIES "
        "TOP 4 BY score"
    )


@settings(max_examples=examples(100), deadline=None)
@given(range_operations)
def test_range_queries_match_reference_and_cold_runs(ops):
    db = _movies_db()
    snapshots = []
    for op, arg in ops:
        if op == "query":
            strategy, comparison, asked = arg
            for bound in asked:
                sql = _range_sql(comparison, bound)
                _answers_like_reference_and_cold(db, _cold_twin(db), strategy, sql)
                assert db.blocks.rows <= db.blocks.budget
        elif op == "insert":
            m_id, year = arg
            try:
                db.insert("MOVIES", (m_id, f"m{m_id}", year))
            except ReproError:
                continue
            db.insert("GENRES", (m_id, "g1"))
        elif op == "snapshot":
            snapshots.append((db.snapshot(), _cold_twin(db)))
        else:
            getattr(db, op)()
    for snap, cold in reversed(snapshots):
        for comparison in (">=", "<"):
            _answers_like_reference_and_cold(snap, cold, "gbu", _range_sql(comparison, 2003))
