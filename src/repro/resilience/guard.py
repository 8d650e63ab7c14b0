"""Query guards: deadlines, budgets and cooperative cancellation.

A :class:`QueryGuard` is a per-query resource governor.  The execution stack
checks it at operator boundaries (all six strategies and the native engine)
and the simulated-I/O accountant (:class:`repro.engine.iosim.CostModel`)
reports every materialized tuple into it, so a runaway query is stopped by
whichever trips first:

* **deadline** — wall-clock budget for the whole query
  (:exc:`~repro.errors.QueryTimeout`);
* **max_tuples** — ceiling on tuples materialized while executing
  (:exc:`~repro.errors.ResourceExhausted` with ``kind="tuples"``);
* **max_rows** — ceiling on the final result size, enforced by the
  execution engine (:exc:`~repro.errors.ResourceExhausted`, ``kind="rows"``);
* **cancellation** — a cooperative :class:`CancellationToken` another thread
  may trip at any time (:exc:`~repro.errors.QueryCancelled`).

Mirroring the tracer (:mod:`repro.obs`), the ambient guard travels through a
``ContextVar`` and defaults to :data:`NULL_GUARD`, whose every operation is
a no-op behind a single ``guard.enabled`` attribute check — production hot
paths pay nothing when no guard is installed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from threading import Event

from ..errors import QueryCancelled, QueryTimeout, ResourceExhausted


class CancellationToken:
    """Thread-safe cooperative cancellation flag.

    Hand the token to a :class:`QueryGuard`, run the query on one thread,
    and call :meth:`cancel` from any other; the query raises
    :exc:`~repro.errors.QueryCancelled` at its next operator boundary.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class QueryGuard:
    """Deadline, budget and cancellation checks for one query execution.

    A guard is single-use: it captures its deadline at construction, so the
    deadline spans the whole execution of the query it guards.
    ``clock`` is injectable for deterministic tests.
    """

    enabled = True

    __slots__ = (
        "timeout",
        "deadline",
        "max_rows",
        "max_tuples",
        "token",
        "clock",
        "tuples",
        "_started",
    )

    def __init__(
        self,
        *,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_tuples: int | None = None,
        token: CancellationToken | None = None,
        clock=time.monotonic,
    ):
        self.timeout = timeout
        self.max_rows = max_rows
        self.max_tuples = max_tuples
        self.token = token
        self.clock = clock
        self.tuples = 0
        self._started = clock()
        self.deadline = None if timeout is None else self._started + timeout

    # -- checks ----------------------------------------------------------------

    def check(self) -> None:
        """Raise if the query is cancelled or past its deadline.

        This is the operator-boundary checkpoint: cheap enough to call per
        operator (one or two attribute reads plus a clock read when a
        deadline is set).
        """
        token = self.token
        if token is not None and token.cancelled:
            raise QueryCancelled()
        deadline = self.deadline
        if deadline is not None and self.clock() > deadline:
            raise QueryTimeout(self.timeout, self.clock() - self._started)

    def note_tuples(self, count: int) -> None:
        """Account for *count* materialized/scanned tuples; enforce the budget."""
        self.tuples += count
        limit = self.max_tuples
        if limit is not None and self.tuples > limit:
            raise ResourceExhausted("tuples", limit, self.tuples)
        self.check()

    def note_rows(self, rows: int) -> None:
        """Enforce the final-result row ceiling (called by the engine)."""
        limit = self.max_rows
        if limit is not None and rows > limit:
            raise ResourceExhausted("rows", limit, rows)

    def remaining(self) -> float | None:
        """Seconds left until the deadline; ``None`` when unbounded."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.clock())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout}")
        if self.max_rows is not None:
            parts.append(f"max_rows={self.max_rows}")
        if self.max_tuples is not None:
            parts.append(f"max_tuples={self.max_tuples}")
        if self.token is not None:
            parts.append("cancellable")
        return f"QueryGuard({', '.join(parts)})"


class _NullGuard:
    """The always-installed default: every operation is a free no-op."""

    __slots__ = ()

    enabled = False
    deadline = None
    max_rows = None
    max_tuples = None
    token = None
    tuples = 0

    def check(self) -> None:
        pass

    def note_tuples(self, count: int) -> None:
        pass

    def note_rows(self, rows: int) -> None:
        pass

    def remaining(self) -> None:
        return None


NULL_GUARD = _NullGuard()

#: The ambient guard; NULL_GUARD unless :func:`use_guard` installed one.
_CURRENT: ContextVar["QueryGuard | _NullGuard"] = ContextVar(
    "repro_guard", default=NULL_GUARD
)


def current_guard() -> "QueryGuard | _NullGuard":
    """The guard installed for the current context (no-op by default).

    ``ContextVar`` values do **not** cross thread boundaries: a worker
    thread that merely calls :func:`current_guard` gets :data:`NULL_GUARD`
    and runs unguarded.  Read the guard on the submitting thread and
    install it with :func:`use_guard` inside the worker (the serving
    layer's :class:`~repro.serve.executor.ServeExecutor` does this
    automatically via ``contextvars.copy_context``).
    """
    return _CURRENT.get()


@contextmanager
def use_guard(guard: "QueryGuard | _NullGuard | None"):
    """Install *guard* as the ambient guard for the enclosed block."""
    token = _CURRENT.set(guard if guard is not None else NULL_GUARD)
    try:
        yield guard
    finally:
        # Exception-safe restore: a token minted in another Context (e.g. a
        # generator finalized on a different worker thread) makes reset()
        # raise ValueError; fall back to reinstalling the no-op default so
        # a stale guard can never leak into the next query on this thread.
        try:
            _CURRENT.reset(token)
        except ValueError:  # pragma: no cover - cross-context teardown
            _CURRENT.set(NULL_GUARD)
