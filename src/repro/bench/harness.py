"""Experiment harness: timed strategy comparisons over workload queries.

Measurement protocol mirrors §VII: each (query, strategy) cell is executed
with a warm-up discarded run, then ``repeats`` timed runs; the median wall
time is reported together with the simulated-I/O counters of one run (the
cold-cache analogue: counters are reset before each run, and our engine has
no buffer cache to warm).  The database's memo of preference-free blocks is
emptied before every run, so each one executes its native blocks cold.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..engine.database import Database
from ..obs import Tracer
from ..pexec.engine import DEFAULT_STRATEGY
from ..plan.nodes import PlanNode
from ..query.session import Session
from ..resilience import QueryGuard
from ..workloads.queries import WorkloadQuery
from .reporting import format_table

#: Default strategies compared in the headline experiments.
DEFAULT_STRATEGIES = ("ftp", "gbu", "plugin-shared", "plugin-rma")


def bench_scale(default: float = 0.002) -> float:
    """Dataset scale for benchmarks, overridable via REPRO_BENCH_SCALE."""
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


def bench_repeats(default: int = 3) -> int:
    """Timed repetitions per cell, overridable via REPRO_BENCH_REPEATS."""
    return int(os.environ.get("REPRO_BENCH_REPEATS", default))


@dataclass
class Measurement:
    """One (query, strategy) cell.

    ``traced`` records whether the timed runs executed under a collecting
    tracer, so persisted BENCH_*.json numbers state whether instrumentation
    was on.  When a trace was additionally collected (outside the timed
    runs), ``trace`` holds its root span and ``trace_overhead_pct`` the
    measured traced-vs-untraced wall-time delta.
    """

    query: str
    strategy: str
    wall_ms: float
    total_io: int
    rows: int
    runs: list[float] = field(default_factory=list)
    traced: bool = False
    trace: object | None = None
    trace_overhead_pct: float | None = None

    # -- tail latency (over the timed runs; see repro.serve.executor) -----------

    def percentile_ms(self, fraction: float) -> float:
        """Nearest-rank percentile of the timed runs, in milliseconds."""
        from ..serve.executor import percentile

        return percentile(self.runs, fraction)

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(0.50)

    @property
    def p95_ms(self) -> float:
        return self.percentile_ms(0.95)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(0.99)

    def as_dict(self) -> dict:
        """JSON-ready cell: headline numbers plus tail latency and raw runs."""
        return {
            "query": self.query,
            "strategy": self.strategy,
            "wall_ms": round(self.wall_ms, 4),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "total_io": self.total_io,
            "rows": self.rows,
            "runs_ms": [round(t, 4) for t in self.runs],
            "traced": self.traced,
        }


#: Active measurement collectors (innermost last); every Measurement that
#: :func:`measure` produces is appended to each — the hook behind
#: ``run_all.py --json``.
_COLLECTORS: list[list[Measurement]] = []


@contextmanager
def collect_measurements():
    """Collect every :func:`measure` result produced in the ``with`` body.

    Yields the (initially empty) list the measurements accumulate in::

        with collect_measurements() as cells:
            run_report()
        json.dump([c.as_dict() for c in cells], out)

    Nesting is allowed; inner collectors see only their own extent's cells,
    outer collectors see everything.
    """
    cells: list[Measurement] = []
    _COLLECTORS.append(cells)
    try:
        yield cells
    finally:
        _COLLECTORS.remove(cells)


def measure(
    session: Session,
    query: "str | PlanNode",
    strategy: str,
    repeats: int = 3,
    label: str = "",
    trace: bool = False,
    trace_sink=None,
    timeout: float | None = None,
    **execute_kwargs,
) -> Measurement:
    """Median-of-*repeats* timing of one query under one strategy.

    The timed runs always execute with the default no-op tracer.  With
    ``trace=True`` one extra *untimed* traced run is performed afterwards;
    its trace is attached to the measurement (and written to *trace_sink*
    if given) together with the traced-vs-untraced overhead.  Every run,
    warm-up included, starts from an empty block memo
    (:meth:`~repro.engine.database.Database.forget_blocks`), so FtP and GBU
    time their delegated native blocks, and the optimizer its rewrites,
    cold, as §VII does.

    *timeout* arms a fresh per-run :class:`~repro.resilience.QueryGuard`
    deadline on every execution (warm-up included), so a hung strategy
    fails a benchmark with a typed :exc:`~repro.errors.QueryTimeout`
    instead of wedging the whole harness.

    Extra keyword arguments are forwarded verbatim to every
    :meth:`Session.execute` call (warm-up, timed and traced runs alike) —
    the hook benchmarks use to time executor variants, e.g.
    ``measure(..., columnar=True)``.
    """

    def execute(tracer=None):
        guard = None if timeout is None else QueryGuard(timeout=timeout)
        return session.execute(
            query, strategy=strategy, tracer=tracer, guard=guard, **execute_kwargs
        )

    session.db.forget_blocks()
    execute()  # warm-up
    times: list[float] = []
    last = None
    for _ in range(max(1, repeats)):
        session.db.forget_blocks()
        started = time.perf_counter()
        last = execute()
        times.append((time.perf_counter() - started) * 1e3)
    assert last is not None
    name = label or (query if isinstance(query, str) else "plan")
    measurement = Measurement(
        query=name,
        strategy=strategy,
        wall_ms=statistics.median(times),
        total_io=last.stats.cost.get("total_io", 0),
        rows=last.stats.rows,
        runs=times,
    )
    if trace:
        tracer = Tracer()
        traced_times: list[float] = []
        for _ in range(max(1, repeats)):
            session.db.forget_blocks()
            started = time.perf_counter()
            traced_result = execute(tracer)
            traced_times.append((time.perf_counter() - started) * 1e3)
        measurement.trace = traced_result.stats.trace
        untraced = measurement.wall_ms
        traced_ms = statistics.median(traced_times)
        if untraced > 0:
            measurement.trace_overhead_pct = round(
                (traced_ms - untraced) / untraced * 100.0, 2
            )
        if trace_sink is not None:
            trace_sink.write(
                measurement.trace,
                meta={
                    "query": name,
                    "strategy": strategy,
                    "rows": measurement.rows,
                    "wall_ms_untraced": round(untraced, 3),
                    "wall_ms_traced": round(traced_ms, 3),
                },
            )
    for cells in _COLLECTORS:
        cells.append(measurement)
    return measurement


def tracer_overhead(
    session: Session,
    query: "str | PlanNode",
    strategy: str = DEFAULT_STRATEGY,
    repeats: int = 5,
) -> dict:
    """Measure the collecting tracer's overhead on one query.

    Returns ``{"untraced_ms", "traced_ms", "overhead_pct"}`` using the
    median of *repeats* runs each way (untraced runs use the no-op tracer
    path, i.e. the default production configuration).
    """
    session.db.forget_blocks()
    session.execute(query, strategy=strategy)  # warm-up
    untraced: list[float] = []
    for _ in range(max(1, repeats)):
        session.db.forget_blocks()
        started = time.perf_counter()
        session.execute(query, strategy=strategy)
        untraced.append(time.perf_counter() - started)
    traced: list[float] = []
    for _ in range(max(1, repeats)):
        tracer = Tracer()
        session.db.forget_blocks()
        started = time.perf_counter()
        session.execute(query, strategy=strategy, tracer=tracer)
        traced.append(time.perf_counter() - started)
    untraced_ms = statistics.median(untraced) * 1e3
    traced_ms = statistics.median(traced) * 1e3
    overhead = (traced_ms - untraced_ms) / untraced_ms * 100.0 if untraced_ms else 0.0
    return {
        "untraced_ms": round(untraced_ms, 3),
        "traced_ms": round(traced_ms, 3),
        "overhead_pct": round(overhead, 2),
    }


def compare_strategies(
    db: Database,
    workload_query: WorkloadQuery,
    strategies=DEFAULT_STRATEGIES,
    repeats: int = 3,
    trace: bool = False,
    trace_sink=None,
    timeout: float | None = None,
) -> list[Measurement]:
    """All strategy cells for one workload query."""
    session = workload_query.session(db)
    return [
        measure(
            session,
            workload_query.sql,
            strategy,
            repeats,
            label=workload_query.name,
            trace=trace,
            trace_sink=trace_sink,
            timeout=timeout,
        )
        for strategy in strategies
    ]


def matrix_table(
    measurements: list[Measurement],
    row_key: str = "query",
    metric: str = "wall_ms",
    title: str = "",
) -> str:
    """Pivot measurements into a text table: rows × strategies."""
    strategies: list[str] = []
    rows: dict[str, dict[str, float]] = {}
    for m in measurements:
        key = getattr(m, row_key)
        if m.strategy not in strategies:
            strategies.append(m.strategy)
        rows.setdefault(str(key), {})[m.strategy] = getattr(m, metric)
    headers = [row_key] + [f"{s} ({_unit(metric)})" for s in strategies]
    body = [
        [key] + [cells.get(s, "-") for s in strategies] for key, cells in rows.items()
    ]
    return format_table(headers, body, title)


def _unit(metric: str) -> str:
    return {
        "wall_ms": "ms",
        "p50_ms": "ms",
        "p95_ms": "ms",
        "p99_ms": "ms",
        "total_io": "pages",
        "rows": "rows",
    }.get(metric, metric)


def table2_properties(db: Database, workload_query: WorkloadQuery) -> dict:
    """The Table II characterization of a query: N, |R|, |λ|, P/NP."""
    session = workload_query.session(db)
    compiled = session.compile(workload_query.sql)
    plan = compiled.plan
    relations = plan.relations()
    preferred = set()
    for preference in workload_query.preferences:
        preferred |= set(preference.relations)
    preferred &= relations
    result = session.execute(compiled, strategy="gbu")
    return {
        "query": workload_query.name,
        "N": result.stats.rows,
        "|R|": len(relations),
        "|λ|": workload_query.num_preferences,
        "P/NP": f"{len(preferred)}/{len(relations) - len(preferred)}",
    }
