"""Unit tests for the Database facade."""

import pytest

from repro.engine.database import Database
from repro.engine.expressions import cmp, eq
from repro.engine.types import DataType
from repro.errors import CatalogError, ExecutionError
from repro.plan.builder import scan
from repro.plan.nodes import Prefer, Relation


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(
        "T", [("id", DataType.INT), ("v", DataType.INT)], primary_key=["id"]
    )
    database.insert_many("T", [(i, i % 5) for i in range(50)])
    database.analyze()
    return database


class TestDDLAndDML:
    def test_create_and_insert(self, db):
        assert len(db.table("T")) == 50

    def test_table_names_uppercased(self, db):
        assert db.catalog.has_table("t")

    def test_drop(self, db):
        db.drop_table("T")
        with pytest.raises(CatalogError):
            db.table("T")

    def test_single_insert(self, db):
        db.insert("T", (100, 1))
        assert db.table("T").get((100,)) == (100, 1)

    def test_insert_many_rebuilds_indexes(self, db):
        db.create_index("T", "v")
        db.insert_many("T", [(200, 99)])
        index = db.catalog.find_index("T", "v")
        assert index.lookup(99)

    def test_create_table_from_schema(self):
        from repro.engine.schema import make_schema

        database = Database()
        schema = make_schema("U", [("a", DataType.INT)], primary_key=["a"])
        database.create_table_from_schema(schema)
        assert database.catalog.has_table("U")


class TestExecution:
    def test_execute_optimizes_by_default(self, db):
        plan = scan("T").select(eq("v", 3)).build()
        schema, rows = db.execute(plan)
        assert len(rows) == 10

    def test_execute_unoptimized(self, db):
        plan = scan("T").select(eq("v", 3)).build()
        _, rows = db.execute(plan, optimize=False)
        assert len(rows) == 10

    def test_prefer_rejected_natively(self, db):
        from repro.core.preference import Preference
        from repro.engine.expressions import TRUE

        plan = Prefer(Relation("T"), [Preference("p", "T", TRUE, 0.5, 0.5)])
        with pytest.raises(ExecutionError):
            db.execute(plan)

    def test_explain_native(self, db):
        plan = scan("T").select(eq("v", 3)).build()
        explained = db.explain_native(plan)
        assert explained is not None

    def test_cost_accumulates_and_resets(self, db):
        db.execute(scan("T").build())
        assert db.cost.total_io > 0
        db.reset_cost()
        assert db.cost.total_io == 0

    def test_analyze_updates_stats(self, db):
        db.insert_many("T", [(i, 7) for i in range(1000, 1100)])
        db.analyze("T")
        stats = db.catalog.stats("T")
        assert stats.n_rows == 150
