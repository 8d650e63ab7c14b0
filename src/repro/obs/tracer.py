"""Hierarchical execution tracing with a zero-cost no-op default.

The execution stack (strategies, native engine, optimizer) reports into a
*tracer*.  Two implementations exist:

* :class:`Tracer` — collects a tree of :class:`Span` objects (operator
  open/close, rows in/out, score-relation sizes, aggregate-apply counts,
  wall and CPU time).  This is the in-memory collector sink.
* :data:`NULL_TRACER` — the always-installed default.  Every method is a
  no-op returning a module-level singleton, so the instrumented hot paths
  cost one attribute check (``tracer.enabled``) and allocate nothing.

The active tracer travels through a :class:`contextvars.ContextVar`, so
deeply nested components (e.g. the native engine invoked by a strategy)
pick it up without signature changes::

    tracer = Tracer()
    with use_tracer(tracer):
        engine.run(plan, "gbu")
    print(tracer.root.children)

Spans form a tree through an explicit stack: context-manager entry pushes,
exit pops.  Pipelined operators (the native engine's iterators) use the
*detached* protocol instead — :meth:`Tracer.push` / :meth:`Tracer.pop`
delimit the structural extent while :meth:`Span.finish` is deferred until
the operator's output iterator is exhausted, so a span's wall time is the
paper-style *inclusive* operator time (PostgreSQL's EXPLAIN ANALYZE
convention).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator


class Span:
    """One traced region: a named node in the trace tree.

    ``counters`` holds integer measurements (``rows_out``, ``scores``,
    ``aggregate.combine`` ...); ``attrs`` holds arbitrary annotations
    (``strategy``, ``changed``, estimated costs ...).
    """

    __slots__ = (
        "name",
        "label",
        "children",
        "counters",
        "attrs",
        "_started_wall",
        "_started_cpu",
        "wall_time",
        "cpu_time",
        "_tracer",
        "_open",
    )

    def __init__(self, name: str, label: str = "", tracer: "Tracer | None" = None):
        self.name = name
        self.label = label
        self.children: list[Span] = []
        self.counters: dict[str, int] = {}
        self.attrs: dict[str, Any] = {}
        self._started_wall = time.perf_counter()
        self._started_cpu = time.process_time()
        self.wall_time = 0.0
        self.cpu_time = 0.0
        self._tracer = tracer
        self._open = True

    # -- measurements -----------------------------------------------------------

    def add(self, counter: str, amount: int = 1) -> None:
        """Increment an integer counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def set(self, key: str, value: Any) -> None:
        """Attach an annotation (non-counter metadata) to this span."""
        self.attrs[key] = value

    def finish(self) -> None:
        """Stamp wall/CPU duration.  Idempotent: later calls are ignored."""
        if not self._open:
            return
        self._open = False
        self.wall_time = time.perf_counter() - self._started_wall
        self.cpu_time = time.process_time() - self._started_cpu

    # -- context manager ---------------------------------------------------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer.push(self)
        return self

    def __exit__(self, *exc) -> bool:
        if self._tracer is not None:
            self._tracer.pop(self)
        self.finish()
        return False

    # -- introspection -----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span in the subtree (pre-order) with ``name``."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    def total(self, counter: str) -> int:
        """Sum of *counter* over this span and all descendants."""
        return sum(span.counters.get(counter, 0) for span in self.walk())

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation (see :mod:`repro.obs.sinks`)."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_ms": round(self.wall_time * 1e3, 6),
            "cpu_ms": round(self.cpu_time * 1e3, 6),
        }
        if self.label:
            out["label"] = self.label
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(data["name"], data.get("label", ""))
        span.wall_time = data.get("wall_ms", 0.0) / 1e3
        span.cpu_time = data.get("cpu_ms", 0.0) / 1e3
        span.counters = dict(data.get("counters", {}))
        span.attrs = dict(data.get("attrs", {}))
        span.children = [cls.from_dict(child) for child in data.get("children", [])]
        span._open = False
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.wall_time * 1e3:.2f}ms, {self.counters})"


class Tracer:
    """Collecting tracer: spans attach under the current stack top.

    ``root`` is a synthetic container span; real work hangs below it.
    ``counters`` are tracer-global totals, fed by :meth:`count` (which also
    credits the innermost open span so per-operator breakdowns carry them).
    """

    enabled = True

    def __init__(self) -> None:
        self.root = Span("trace", tracer=self)
        self._stack: list[Span] = [self.root]
        self.counters: dict[str, int] = {}

    def span(self, name: str, label: str = "") -> Span:
        """Create a span under the current parent (not yet on the stack).

        Use as a context manager (``with tracer.span(...)``) for synchronous
        regions, or with :meth:`push`/:meth:`pop` + :meth:`Span.finish` for
        pipelined operators whose lifetime outlives their structural extent.
        """
        span = Span(name, label, tracer=self)
        self._stack[-1].children.append(span)
        return span

    def push(self, span: Span) -> None:
        self._stack.append(span)

    def pop(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits (generator teardown)
            while stack.pop() is not span:
                pass

    def current(self) -> Span:
        return self._stack[-1]

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a global counter, also credited to the innermost open span."""
        self.counters[name] = self.counters.get(name, 0) + amount
        top = self._stack[-1]
        if top is not self.root:
            top.add(name, amount)

    def finish(self) -> Span:
        """Close the root container and return it."""
        self.root.finish()
        return self.root


class _NullSpan:
    """Singleton stand-in span: every operation is a no-op."""

    __slots__ = ()

    wall_time = 0.0
    cpu_time = 0.0
    name = "null"
    label = ""
    children: list = []
    counters: dict = {}
    attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, counter: str, amount: int = 1) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass

    def finish(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: hot paths check ``enabled`` and move on.

    Every factory returns the module-level :data:`NULL_SPAN`, so the no-op
    path performs **zero allocations** (asserted by the test suite).
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, label: str = "") -> _NullSpan:
        return NULL_SPAN

    def push(self, span) -> None:
        pass

    def pop(self, span) -> None:
        pass

    def current(self) -> _NullSpan:
        return NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def finish(self) -> _NullSpan:
        return NULL_SPAN


NULL_TRACER = NullTracer()

#: The ambient tracer; NULL_TRACER unless :func:`use_tracer` installed one.
_CURRENT: ContextVar["Tracer | NullTracer"] = ContextVar(
    "repro_tracer", default=NULL_TRACER
)


def current_tracer() -> "Tracer | NullTracer":
    """The tracer installed for the current context (no-op by default).

    ``ContextVar`` values do not cross thread boundaries: a worker thread
    that merely calls :func:`current_tracer` gets :data:`NULL_TRACER` and
    traces nothing.  Read the tracer on the submitting thread and install
    it with :func:`use_tracer` inside the worker.  A :class:`Tracer` is not
    itself thread-safe — hand one tracer to one worker at a time.
    """
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer | None"):
    """Install *tracer* (``None``: :data:`NULL_TRACER`) as the ambient
    tracer for the enclosed block."""
    token = _CURRENT.set(tracer if tracer is not None else NULL_TRACER)
    try:
        yield tracer
    finally:
        # Exception-safe restore: reset() raises ValueError for a token
        # minted in a different Context (cross-thread generator teardown);
        # reinstall the no-op default rather than leaking a stale tracer.
        try:
            _CURRENT.reset(token)
        except ValueError:  # pragma: no cover - cross-context teardown
            _CURRENT.set(NULL_TRACER)


def traced_rows(rows, span: Span):
    """Wrap a row iterator: counts ``rows_out`` and finishes *span* on exhaustion.

    Used by the pipelined native engine; the span's wall time then covers
    operator open through last row (inclusive time).
    """
    n = 0
    try:
        for row in rows:
            n += 1
            yield row
    finally:
        span.add("rows_out", n)
        span.finish()
