"""Unit tests for the native physical executor."""

import operator
from collections import Counter

import pytest

from repro import Database, DataType
from repro.engine.expressions import TRUE, And, Attr, Comparison, Literal, cmp, eq
from repro.engine.iosim import CostModel
from repro.engine.physical import execute_native
from repro.errors import ExecutionError
from repro.obs import Tracer
from repro.resilience import QueryGuard, use_guard
from repro.plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    Materialized,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)
from repro.core.preference import Preference


def run(plan, db):
    return execute_native(plan, db.catalog, CostModel())


class TestLeaves:
    def test_relation_scan(self, movie_db):
        schema, rows = run(Relation("MOVIES"), movie_db)
        assert len(rows) == 5
        assert schema.has("title")

    def test_alias_renames(self, movie_db):
        schema, _ = run(Relation("MOVIES", alias="M"), movie_db)
        assert schema.has("M.title")
        assert not schema.has("MOVIES.title")

    def test_materialized(self, movie_db):
        base = movie_db.table("MOVIES")
        node = Materialized(base.schema, list(base.rows))
        _, rows = run(node, movie_db)
        assert len(rows) == 5


class TestSelect:
    def test_filter(self, movie_db):
        _, rows = run(Select(Relation("MOVIES"), cmp("year", ">=", 2006)), movie_db)
        assert {r[0] for r in rows} == {1, 2, 5}

    def test_score_condition_rejected(self, movie_db):
        plan = Select(Relation("MOVIES"), cmp("score", ">", 0.5))
        with pytest.raises(ExecutionError):
            run(plan, movie_db)

    def test_index_equality_access(self, movie_db_indexed):
        cost = CostModel()
        plan = Select(Relation("GENRES"), eq("genre", "Comedy"))
        _, rows = execute_native(plan, movie_db_indexed.catalog, cost)
        assert {r[0] for r in rows} == {4, 5}
        assert cost.index_lookups == 1
        assert cost.tuples_scanned == 0

    def test_index_range_access(self, movie_db_indexed):
        cost = CostModel()
        plan = Select(Relation("MOVIES"), cmp("year", ">", 2005))
        _, rows = execute_native(plan, movie_db_indexed.catalog, cost)
        assert {r[0] for r in rows} == {1, 2, 5}
        assert cost.index_lookups == 1

    def test_index_with_residual_condition(self, movie_db_indexed):
        plan = Select(
            Relation("MOVIES"),
            And(cmp("year", ">", 2004), cmp("duration", "<", 120)),
        )
        _, rows = run(plan, movie_db_indexed)
        assert {r[0] for r in rows} == {1, 5}

    def test_no_index_falls_back_to_scan(self, movie_db):
        cost = CostModel()
        plan = Select(Relation("MOVIES"), eq("year", 2008))
        _, rows = execute_native(plan, movie_db.catalog, cost)
        assert len(rows) == 1
        assert cost.index_lookups == 0


class TestProject:
    def test_projection(self, movie_db):
        schema, rows = run(Project(Relation("MOVIES"), ["title", "year"]), movie_db)
        assert schema.attribute_names == ("MOVIES.title", "MOVIES.year")
        assert ("Scoop", 2006) in rows


class TestJoin:
    def test_hash_join(self, movie_db):
        plan = Join(
            Relation("MOVIES"),
            Relation("DIRECTORS"),
            eq("MOVIES.d_id", 0) | TRUE,  # dummy to check next test separately
        )

    def test_equi_join(self, movie_db):
        from repro.engine.expressions import Comparison, Attr

        plan = Join(
            Relation("MOVIES"),
            Relation("DIRECTORS"),
            Comparison("=", Attr("MOVIES.d_id"), Attr("DIRECTORS.d_id")),
        )
        schema, rows = run(plan, movie_db)
        assert len(rows) == 5
        director = schema.index_of("director")
        title = schema.index_of("title")
        pairs = {(r[title], r[director]) for r in rows}
        assert ("Gran Torino", "C. Eastwood") in pairs

    def test_cross_product(self, movie_db):
        plan = Join(Relation("MOVIES"), Relation("DIRECTORS"), TRUE)
        _, rows = run(plan, movie_db)
        assert len(rows) == 15

    def test_theta_join(self, movie_db):
        from repro.engine.expressions import Comparison, Attr

        plan = Join(
            Relation("MOVIES"),
            Relation("AWARDS"),
            Comparison("<", Attr("MOVIES.year"), Attr("AWARDS.year")),
        )
        _, rows = run(plan, movie_db)
        # award years: 2005 (1 earlier movie) and 2009 (4 earlier movies)
        assert len(rows) == 5

    def test_join_null_keys_do_not_match(self, movie_db):
        movie_db.insert("MOVIES", (9, "No Director", 2000, 100, None))
        from repro.engine.expressions import Comparison, Attr

        plan = Join(
            Relation("MOVIES"),
            Relation("DIRECTORS"),
            Comparison("=", Attr("MOVIES.d_id"), Attr("DIRECTORS.d_id")),
        )
        _, rows = run(plan, movie_db)
        assert all(r[0] != 9 for r in rows)


class TestSetOps:
    def _titles(self, db, condition):
        return Project(Select(Relation("MOVIES"), condition), ["title"])

    def test_union_dedups(self, movie_db):
        plan = Union(
            self._titles(movie_db, cmp("year", ">=", 2005)),
            self._titles(movie_db, cmp("year", "<=", 2006)),
        )
        _, rows = run(plan, movie_db)
        assert len(rows) == 5

    def test_intersect(self, movie_db):
        plan = Intersect(
            self._titles(movie_db, cmp("year", ">=", 2005)),
            self._titles(movie_db, cmp("year", "<=", 2006)),
        )
        _, rows = run(plan, movie_db)
        assert {r[0] for r in rows} == {"Match Point", "Scoop"}

    def test_difference(self, movie_db):
        plan = Difference(
            self._titles(movie_db, TRUE),
            self._titles(movie_db, cmp("year", ">=", 2005)),
        )
        _, rows = run(plan, movie_db)
        assert {r[0] for r in rows} == {"Million Dollar Baby"}

    def test_incompatible_inputs_rejected(self, movie_db):
        plan = Union(Relation("MOVIES"), Relation("DIRECTORS"))
        with pytest.raises(ExecutionError):
            run(plan, movie_db)


class TestPreferenceNodesRejected:
    def test_prefer_rejected(self, movie_db, example_preferences):
        plan = Prefer(Relation("GENRES"), [example_preferences["p1"]])
        with pytest.raises(ExecutionError):
            run(plan, movie_db)

    def test_topk_rejected(self, movie_db):
        with pytest.raises(ExecutionError):
            run(TopK(Relation("MOVIES"), 3), movie_db)


def _nullable_db(index_kind=None):
    """``T(id, x)`` holding ``(1, NULL), (2, 5), (3, 7)``."""
    db = Database()
    db.create_table("T", [("id", DataType.INT), ("x", DataType.INT)], primary_key=["id"])
    db.insert_many("T", [(1, None), (2, 5), (3, 7)])
    if index_kind is not None:
        db.create_index("T", "x", kind=index_kind)
    db.analyze()
    return db


class TestNullConstantThroughIndex:
    """``σ[x op NULL]`` matches nothing, whichever access path serves it."""

    @pytest.mark.parametrize(
        "kind, op",
        [("hash", "="), ("btree", "<"), ("btree", "<="), ("btree", ">"), ("btree", ">=")],
    )
    @pytest.mark.parametrize("literal_first", [False, True])
    def test_index_agrees_with_scan(self, kind, op, literal_first):
        operands = (Literal(None), Attr("x")) if literal_first else (Attr("x"), Literal(None))
        plan = Select(Relation("T"), Comparison(op, *operands))
        _, scanned = run(plan, _nullable_db())
        cost = CostModel()
        _, indexed = execute_native(plan, _nullable_db(kind).catalog, cost)
        assert cost.index_lookups == 1  # the index path really served it
        assert indexed == scanned == []


class TestPrimaryKeyProbe:
    """``σ[pk = c]`` on a base relation probes the table's key map: one
    index probe, no scan, and the rows the scan path returns."""

    @pytest.mark.parametrize("value", [2, 2.0, 9, None])
    @pytest.mark.parametrize("literal_first", [False, True])
    def test_probe_agrees_with_scan(self, value, literal_first):
        db = _nullable_db()
        operands = (Literal(value), Attr("id")) if literal_first else (Attr("id"), Literal(value))
        condition = Comparison("=", *operands)
        table = db.table("T")
        scan_cost = CostModel()
        _, scanned = execute_native(
            Select(Materialized(table.schema, table.rows), condition), db.catalog, scan_cost
        )
        assert scan_cost.tuples_scanned == 3
        cost = CostModel()
        _, probed = execute_native(Select(Relation("T"), condition), db.catalog, cost)
        assert probed == scanned == ([(2, 5)] if value == 2 else [])
        assert cost.index_lookups == 1
        assert cost.tuples_scanned == 0

    def test_residual_conjuncts_filter_the_probed_row(self):
        db = _nullable_db()
        for bound, expected in ((6, [(3, 7)]), (7, [])):
            cost = CostModel()
            plan = Select(Relation("T"), And(cmp("x", ">", bound), eq("id", 3)))
            _, rows = execute_native(plan, db.catalog, cost)
            assert rows == expected
            assert (cost.index_lookups, cost.tuples_scanned) == (1, 0)

    def test_a_composite_key_is_not_probed(self):
        db = Database()
        db.create_table("P", [("a", DataType.INT), ("b", DataType.INT)], primary_key=["a", "b"])
        db.insert_many("P", [(1, 1), (1, 2), (2, 1)])
        cost = CostModel()
        _, rows = execute_native(Select(Relation("P"), eq("a", 1)), db.catalog, cost)
        assert rows == [(1, 1), (1, 2)]
        assert (cost.index_lookups, cost.tuples_scanned) == (0, 3)


# -- kernels vs a naive nested-loop evaluator ---------------------------------

_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _holds(condition, schema, row):
    """Direct evaluation: any comparison touching NULL is false."""
    if isinstance(condition, Literal):
        return bool(condition.value)
    if isinstance(condition, And):
        return all(_holds(part, schema, row) for part in condition.operands)
    sides = [
        row[schema.index_of(side.name)] if isinstance(side, Attr) else side.value
        for side in (condition.left, condition.right)
    ]
    return None not in sides and _OPS[condition.op](*sides)


def _naive(plan, db):
    """Schema and rows of *plan* by scans and nested loops only."""
    if isinstance(plan, Relation):
        return plan.schema(db.catalog), list(db.table(plan.name).rows)
    if isinstance(plan, Select):
        schema, rows = _naive(plan.child, db)
        return schema, [row for row in rows if _holds(plan.condition, schema, row)]
    if isinstance(plan, Project):
        schema, rows = _naive(plan.child, db)
        positions = [schema.index_of(a) for a in plan.attrs]
        return schema.project(plan.attrs), [tuple(r[i] for i in positions) for r in rows]
    left_schema, left_rows = _naive(plan.left, db)
    right_schema, right_rows = _naive(plan.right, db)
    schema = left_schema.join(right_schema)
    out = []
    for left in left_rows:
        matches = [
            left + right
            for right in right_rows
            if _holds(plan.condition, schema, left + right)
        ]
        if not matches and isinstance(plan, LeftJoin):
            matches = [left + (None,) * len(right_schema.columns)]
        out.extend(matches)
    return schema, out


def _keyed_db():
    """``L`` (12 rows) and ``R`` (40 rows) with NULL and duplicate join keys
    on both sides, plus a hash index on ``R.k1`` for index nested loops."""
    db = Database()
    for name, payload in (("L", "v"), ("R", "w")):
        db.create_table(
            name,
            [("id", DataType.INT), ("k1", DataType.INT), ("k2", DataType.INT),
             (payload, DataType.INT)],
            primary_key=["id"],
        )
    db.insert_many("L", [
        (i, None if i % 6 == 1 else i % 4, None if i % 7 == 0 else i % 3, i % 6)
        for i in range(1, 13)
    ])
    db.insert_many("R", [
        (j, None if j % 6 == 0 else j % 5, None if j % 9 == 0 else j % 3, j % 7)
        for j in range(1, 41)
    ])
    db.create_index("R", "k1")
    db.analyze()
    return db


def _eq(a, b):
    return Comparison("=", Attr(a), Attr(b))


_K1 = _eq("L.k1", "R.k1")
_K2 = And(_K1, _eq("L.k2", "R.k2"))
_PK = _eq("L.k1", "R.id")
_RESIDUAL = Comparison("<", Attr("L.v"), Attr("R.w"))
_OUTER = Select(Relation("L"), cmp("L.v", "<=", 1))
_INNER = Project(Relation("R"), ["R.id", "R.k1", "R.w"])
_DERIVED = Select(Relation("R"), cmp("R.w", ">=", 2))

#: CostModel counters of the shapes below, pinned from the executor before
#: the kernels and before joins probed the catalog's key maps: a hash or
#: nested-loop join scans both inputs and materializes the inner one (also
#: when the inner is a base relation whose hash index or primary key is
#: probed instead of a fresh build); the index nested loop scans the outer
#: only and probes once per non-NULL outer key.
_BOTH_SCANNED = dict(pages_read=2, pages_written=1, tuples_scanned=52,
                     tuples_materialized=40, index_lookups=0, total_io=3)
_INDEX_PROBED = dict(pages_read=5, pages_written=0, tuples_scanned=12,
                     tuples_materialized=0, index_lookups=2, total_io=5)
_DERIVED_BUILT = dict(pages_read=2, pages_written=1, tuples_scanned=52,
                      tuples_materialized=29, index_lookups=0, total_io=3)
_JOIN = {"join": 1, "relation": 2}
_LEFT_JOIN = {"left-join": 1, "relation": 2}
_INDEX_NL = {"index-nested-loop": 1, "join": 1, "relation": 1, "select": 1}

#: name -> (plan, pinned I/O counters, pinned operator counts).  ``R.k1``
#: carries a hash index, so the ``equi-1*`` and ``index-build-*`` cases probe
#: it (NULL outer keys against an index with a NULL bucket) and the ``pk-*``
#: cases probe the primary-key map of ``R.id``; ``derived-build*`` and
#: ``equi-2*`` hash a fresh build side.
_KERNEL_CASES = {
    "equi-1": (Join(Relation("L"), Relation("R"), _K1), _BOTH_SCANNED, _JOIN),
    "equi-1-residual": (
        Join(Relation("L"), Relation("R"), And(_K1, _RESIDUAL)), _BOTH_SCANNED, _JOIN
    ),
    "index-build-projected": (
        Join(Relation("L"), _INNER, _K1), _BOTH_SCANNED, dict(_JOIN, project=1)
    ),
    "index-build-projected-residual": (
        Join(Relation("L"), _INNER, And(_K1, _RESIDUAL)),
        _BOTH_SCANNED,
        dict(_JOIN, project=1),
    ),
    "pk-build": (Join(Relation("L"), Relation("R"), _PK), _BOTH_SCANNED, _JOIN),
    "pk-build-residual": (
        Join(Relation("L"), Relation("R"), And(_PK, _RESIDUAL)), _BOTH_SCANNED, _JOIN
    ),
    "pk-build-projected": (
        Join(Relation("L"), Project(Relation("R"), ["R.w", "R.id"]), _PK),
        _BOTH_SCANNED,
        dict(_JOIN, project=1),
    ),
    "pk-build-projected-residual": (
        Join(Relation("L"), Project(Relation("R"), ["R.w", "R.id"]), And(_PK, _RESIDUAL)),
        _BOTH_SCANNED,
        dict(_JOIN, project=1),
    ),
    # A primary key alone never makes an index nested loop, however small
    # the outer side: it stays a hash join, charged as one.
    "pk-build-selective-outer": (
        Join(_OUTER, Relation("R"), _PK), _BOTH_SCANNED, dict(_JOIN, select=1)
    ),
    "derived-build": (
        Join(Relation("L"), _DERIVED, _K1), _DERIVED_BUILT, dict(_JOIN, select=1)
    ),
    "derived-build-residual": (
        Join(Relation("L"), _DERIVED, And(_K1, _RESIDUAL)),
        _DERIVED_BUILT,
        dict(_JOIN, select=1),
    ),
    "equi-2": (Join(Relation("L"), Relation("R"), _K2), _BOTH_SCANNED, _JOIN),
    "equi-2-residual": (
        Join(Relation("L"), Relation("R"), And(_K2, _RESIDUAL)), _BOTH_SCANNED, _JOIN
    ),
    "theta": (Join(Relation("L"), Relation("R"), _RESIDUAL), _BOTH_SCANNED, _JOIN),
    "cross": (Join(Relation("L"), Relation("R"), TRUE), _BOTH_SCANNED, _JOIN),
    "index-nl-projected": (Join(_OUTER, _INNER, _K1), _INDEX_PROBED, _INDEX_NL),
    "index-nl-projected-residual": (
        Join(_OUTER, _INNER, And(_K1, _RESIDUAL)), _INDEX_PROBED, _INDEX_NL
    ),
    "left-equi-1": (LeftJoin(Relation("L"), Relation("R"), _K1), _BOTH_SCANNED, _LEFT_JOIN),
    "left-equi-2-residual": (
        LeftJoin(Relation("L"), Relation("R"), And(_K2, _RESIDUAL)), _BOTH_SCANNED, _LEFT_JOIN
    ),
    "left-theta": (LeftJoin(Relation("L"), Relation("R"), _RESIDUAL), _BOTH_SCANNED, _LEFT_JOIN),
    "project-1": (
        Project(Join(Relation("L"), Relation("R"), _K1), ["R.w"]),
        _BOTH_SCANNED,
        dict(_JOIN, project=1),
    ),
}


class _CountingGuard(QueryGuard):
    """An unbounded guard that counts its operator-boundary checks."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        super().check()


class TestKernelsMatchNestedLoops:
    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_exact_multiset_and_counters(self, case):
        plan, io, operators = _KERNEL_CASES[case]
        db = _keyed_db()
        cost = CostModel()
        schema, rows = execute_native(plan, db.catalog, cost)
        expected_schema, expected = _naive(plan, db)
        assert schema.attribute_names == expected_schema.attribute_names
        assert rows and Counter(rows) == Counter(expected)
        assert cost.snapshot() == io
        assert cost.operator_calls == operators

    @pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
    def test_spans_and_fault_visits_follow_the_operators(self, case):
        """A build side served from a catalog key map still runs as an
        operator: one finished span with its row count and one
        operator-boundary guard check, like a built one."""
        plan, _, operators = _KERNEL_CASES[case]
        guard = _CountingGuard()
        tracer = Tracer()
        with use_guard(guard):
            _, rows = execute_native(plan, _keyed_db().catalog, CostModel(), tracer)
        kinds = Counter({k: n for k, n in operators.items() if k != "index-nested-loop"})
        assert guard.checks == sum(kinds.values())
        spans = list(tracer.root.walk())[1:]
        assert Counter(s.name for s in spans) == {f"native.{k}": n for k, n in kinds.items()}
        assert spans[0].counters["rows_out"] == len(rows)
        assert all(s.wall_time > 0 and "rows_out" in s.counters for s in spans)
