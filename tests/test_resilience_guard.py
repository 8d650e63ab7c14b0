"""Tests for query guards: deadlines, budgets, cancellation, plumbing."""

import pytest

from repro.errors import (
    QueryCancelled,
    QueryTimeout,
    ResourceExhausted,
)
from repro.query.session import Session
from repro.resilience import CancellationToken, QueryGuard, use_guard
from repro.resilience.guard import NULL_GUARD, current_guard


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ExpiringClock:
    """A monotonic clock that jumps past any deadline on its *expire_at*-th read."""

    def __init__(self, expire_at: int):
        self.expire_at = expire_at
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 0.0 if self.reads < self.expire_at else 1e9


class TestCancellationToken:
    def test_starts_unset(self):
        token = CancellationToken()
        assert not token.cancelled

    def test_cancel_is_sticky(self):
        token = CancellationToken()
        token.cancel()
        token.cancel()
        assert token.cancelled


class TestQueryGuard:
    def test_unbounded_guard_never_trips(self):
        guard = QueryGuard()
        guard.check()
        guard.note_tuples(10**9)
        guard.note_rows(10**9)
        assert guard.remaining() is None

    def test_deadline_spans_from_construction(self):
        clock = FakeClock()
        guard = QueryGuard(timeout=5.0, clock=clock)
        clock.advance(4.9)
        guard.check()  # still inside the budget
        clock.advance(0.2)
        with pytest.raises(QueryTimeout) as excinfo:
            guard.check()
        assert excinfo.value.timeout == 5.0
        assert excinfo.value.elapsed == pytest.approx(5.1)

    def test_remaining_clamps_to_zero(self):
        clock = FakeClock()
        guard = QueryGuard(timeout=1.0, clock=clock)
        assert guard.remaining() == pytest.approx(1.0)
        clock.advance(3.0)
        assert guard.remaining() == 0.0

    def test_tuple_budget(self):
        guard = QueryGuard(max_tuples=100)
        guard.note_tuples(60)
        with pytest.raises(ResourceExhausted) as excinfo:
            guard.note_tuples(60)
        assert excinfo.value.kind == "tuples"
        assert excinfo.value.limit == 100
        assert excinfo.value.used == 120

    def test_row_ceiling(self):
        guard = QueryGuard(max_rows=5)
        guard.note_rows(5)
        with pytest.raises(ResourceExhausted) as excinfo:
            guard.note_rows(6)
        assert excinfo.value.kind == "rows"

    def test_cancellation_checked_first(self):
        token = CancellationToken()
        guard = QueryGuard(token=token)
        guard.check()
        token.cancel()
        with pytest.raises(QueryCancelled):
            guard.check()

    def test_null_guard_is_disabled_noop(self):
        assert NULL_GUARD.enabled is False
        NULL_GUARD.check()
        NULL_GUARD.note_tuples(10**9)
        NULL_GUARD.note_rows(10**9)
        assert NULL_GUARD.remaining() is None

    def test_ambient_guard_contextvar(self):
        assert current_guard() is NULL_GUARD
        guard = QueryGuard(timeout=1.0)
        with use_guard(guard):
            assert current_guard() is guard
            with use_guard(None):
                assert current_guard() is NULL_GUARD
            assert current_guard() is guard
        assert current_guard() is NULL_GUARD


SQL = "SELECT title FROM MOVIES PREFERRING p5 TOP 3 BY score"


@pytest.fixture
def session(movie_db, example_preferences) -> Session:
    session = Session(movie_db)
    session.register(example_preferences["p5"])
    return session


class TestSessionIntegration:
    @pytest.mark.parametrize("strategy", ["gbu", "bu", "ftp", "plugin-rma", "plugin-shared", "reference"])
    def test_expired_deadline_raises_in_every_strategy(self, session, strategy):
        with pytest.raises(QueryTimeout):
            session.execute(SQL, strategy=strategy, guard=QueryGuard(timeout=0.0))

    @pytest.mark.parametrize("expire_at", [3, 4])
    @pytest.mark.parametrize("strategy", ["gbu", "bu", "ftp", "plugin-rma", "plugin-shared", "reference"])
    def test_deadline_trips_mid_query(self, session, strategy, expire_at):
        # Read 1 starts the guard and read 2 is the first operator check,
        # so the deadline passes at a later check inside the operator tree.
        clock = ExpiringClock(expire_at)
        with pytest.raises(QueryTimeout) as excinfo:
            session.execute(SQL, strategy=strategy, guard=QueryGuard(timeout=1.0, clock=clock))
        assert clock.reads > expire_at
        frames = [entry.name for entry in excinfo.traceback]
        assert "_dispatch" in frames and frames[-1] == "check"

    def test_max_rows_enforced_on_result(self, session):
        with pytest.raises(ResourceExhausted) as excinfo:
            session.execute(
                "SELECT title FROM MOVIES PREFERRING p5", guard=QueryGuard(max_rows=2)
            )
        assert excinfo.value.kind == "rows"

    def test_max_rows_allows_small_results(self, session):
        result = session.execute(SQL, guard=QueryGuard(max_rows=10))
        assert 0 < result.stats.rows <= 10

    def test_tuple_budget_via_explicit_guard(self, session):
        with pytest.raises(ResourceExhausted) as excinfo:
            session.execute(SQL, guard=QueryGuard(max_tuples=1))
        assert excinfo.value.kind == "tuples"

    def test_cancelled_token_stops_the_query(self, session):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            session.execute(SQL, guard=QueryGuard(token=token))

    def test_untimed_query_unaffected(self, session):
        plain = session.execute(SQL)
        guarded = session.execute(SQL, guard=QueryGuard(timeout=60.0, max_rows=1000))
        assert plain.relation.same_contents(guarded.relation)
