"""Tests for the exception hierarchy and error surfaces."""

import pytest

from repro.errors import (
    CatalogError,
    DataCorruption,
    ExecutionError,
    ExpressionError,
    OptimizerError,
    ParseError,
    PlanError,
    PreferenceError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    ResilienceError,
    ResourceExhausted,
    SchemaError,
    TransientFault,
    TypeError_,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            SchemaError,
            CatalogError,
            TypeError_,
            ExpressionError,
            PlanError,
            OptimizerError,
            ExecutionError,
            PreferenceError,
            ParseError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_single_catch_at_api_boundary(self, movie_db):
        """One except clause suffices for any library failure."""
        from repro.query.session import Session

        session = Session(movie_db)
        failures = 0
        for bad in (
            "not sql at all",
            "SELECT missing_attr FROM MOVIES",
            "SELECT title FROM NO_SUCH_TABLE",
            "SELECT title FROM MOVIES PREFERRING unknown_pref",
        ):
            try:
                session.execute(bad)
            except ReproError:
                failures += 1
        assert failures == 4


class TestResilienceErrors:
    @pytest.mark.parametrize(
        "exc",
        [QueryTimeout, QueryCancelled, ResourceExhausted, TransientFault,
         DataCorruption],
    )
    def test_all_derive_from_resilience_error(self, exc):
        assert issubclass(exc, ResilienceError)
        assert issubclass(exc, ReproError)

    def test_query_timeout_reports_budget_and_elapsed(self):
        err = QueryTimeout(0.5, elapsed=0.7123)
        assert err.timeout == 0.5
        assert "0.500s deadline" in str(err) and "0.712s" in str(err)
        assert "ran" not in str(QueryTimeout(0.5))

    def test_resource_exhausted_carries_budget_fields(self):
        err = ResourceExhausted("tuples", 100, 150)
        assert (err.kind, err.limit, err.used) == ("tuples", 100, 150)
        assert "150 > 100" in str(err)

    def test_transient_fault_names_its_site(self):
        err = TransientFault("net.read")
        assert err.site == "net.read"
        assert "net.read" in str(err)

    def test_data_corruption_location_formats(self):
        assert str(DataCorruption("bad")) == "bad"
        assert str(DataCorruption("bad", path="t.jsonl")).endswith("[t.jsonl]")
        assert str(DataCorruption("bad", path="t.jsonl", line=7)).endswith("[t.jsonl:7]")


class TestParseErrorLocation:
    def test_carries_line_and_column(self):
        err = ParseError("boom", line=3, column=7)
        assert err.line == 3 and err.column == 7
        assert "line 3" in str(err) and "column 7" in str(err)

    def test_location_optional(self):
        err = ParseError("boom")
        assert err.line is None
        assert "line" not in str(err)

    def test_line_without_column(self):
        err = ParseError("boom", line=2)
        assert "line 2" in str(err)
        assert "column" not in str(err)
