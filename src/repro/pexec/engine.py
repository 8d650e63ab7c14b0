"""The preference-aware execution engine: strategy registry and entry point.

This is the component marked "Execution Engine" in the paper's architecture
(Fig. 6): it receives an extended query plan, runs the preference-aware
optimizer where the strategy calls for it, executes the plan with the chosen
strategy and returns a p-relation along with timing and simulated-I/O
statistics.

Strategies:

======================  ======================================================
``gbu`` (default)       Group Bottom-Up — optimized plan, operators batched
                        into native queries between prefer boundaries (Alg 2).
``bu``                  Bottom-Up — optimized plan, one query per operator.
``ftp``                 Filter-then-Prefer — non-preference part delegated
                        wholesale, prefers evaluated on its result (Alg 1).
``plugin-rma``          Plug-in baseline, one full query per preference.
``plugin-shared``       Plug-in baseline sharing one materialized base result.
``reference``           Direct interpretation of the extended algebra (oracle).
======================  ======================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..columnar import evaluate_columnar
from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..engine.database import Database, use_query_cost
from ..engine.iosim import CostModel
from ..errors import ColumnarUnsupported, ExecutionError
from ..obs import current_tracer, use_tracer
from ..optimizer import OptimizerConfig, PreferenceOptimizer
from ..resilience import current_guard, use_guard
from ..plan.analysis import prepare_plan
from ..plan.nodes import PlanNode
from .bottom_up import execute_bu
from .conform import conform
from .ftp import execute_ftp
from .group_bottom_up import execute_gbu
from .plugin import execute_plugin_rma, execute_plugin_shared
from .reference import evaluate_reference

#: Strategies that run on the plan produced by the preference-aware
#: optimizer; the others organize execution themselves.
_OPTIMIZED_STRATEGIES = frozenset({"bu", "gbu"})

STRATEGIES = ("gbu", "bu", "ftp", "plugin-rma", "plugin-shared", "reference")

#: The strategy every entry point runs when the caller names none.
DEFAULT_STRATEGY = "gbu"


@dataclass
class ExecutionStats:
    """Measurements for a single query execution.

    Every instance is private to one :meth:`ExecutionEngine.run` call: the
    engine executes each query against a fresh :class:`CostModel` (merged
    into the database-wide accumulator afterwards), so reusing one engine —
    or interleaving strategies — can never bleed counters between results.

    ``operators`` counts operator invocations for this query only;
    ``trace`` is the root :class:`repro.obs.Span` when the query ran under
    a collecting tracer, else ``None``.
    """

    strategy: str
    wall_time: float
    rows: int
    cost: dict[str, int] = field(default_factory=dict)
    operators: dict[str, int] = field(default_factory=dict)
    trace: object | None = None
    #: Which executor produced the result: ``"row"`` (the strategy named in
    #: ``strategy``) or ``"columnar"`` (the columnar executor).
    mode: str = "row"

    def summary(self) -> str:
        return (
            f"{self.strategy}: {self.wall_time * 1e3:.2f} ms, {self.rows} rows, "
            f"{self.cost.get('total_io', 0)} simulated page I/Os"
        )


@dataclass
class QueryResult:
    """Outcome of one query execution.

    ``relation`` carries the *widened* schema (user attributes plus the
    primary keys and preference attributes the engine projects through the
    plan); :meth:`presented` trims it back to the attributes the query asked
    for.
    """

    relation: PRelation
    stats: ExecutionStats
    plan: PlanNode
    executed_plan: PlanNode
    plan_schema: object = None

    def presented(self) -> PRelation:
        from ..core.algebra import project

        target = [c.qualified_name for c in self.plan_schema.columns]
        return project(self.relation, target)


class ExecutionEngine:
    """Runs extended query plans against a :class:`Database`."""

    def __init__(
        self,
        db: Database,
        aggregate: AggregateFunction = F_S,
        optimizer_config: OptimizerConfig | None = None,
    ):
        self.db = db
        self.aggregate = aggregate
        self.optimizer = PreferenceOptimizer(db.catalog, optimizer_config, db=db)

    def prepare(self, plan: PlanNode) -> PlanNode:
        """Widen the plan's projections (the parser step of §VI).

        Every attribute a prefer operator uses, every join attribute and
        every base-relation primary key is carried through projections so
        score relations stay keyable.

        The widened plan (:func:`~repro.plan.analysis.prepare_plan`) is
        memoized in ``db.blocks`` for this data version under *plan*'s
        value (:meth:`Database.memo_plan`).  Under a
        collecting tracer the enclosing span gets ``memo``: ``hit`` or
        ``miss``.
        """
        prepared, hit = self.db.memo_plan(
            "prepare", plan, lambda node: prepare_plan(node, self.db.catalog)
        )
        current_tracer().current().set("memo", "hit" if hit else "miss")
        return prepared

    def run(
        self,
        plan: PlanNode,
        strategy: str = DEFAULT_STRATEGY,
        tracer=None,
        *,
        guard=None,
        columnar: bool | None = None,
    ) -> QueryResult:
        """Execute *plan* with *strategy*, returning result and statistics.

        *tracer* (or, when ``None``, the ambient tracer) receives a
        ``query`` span with ``prepare`` / ``optimize`` / ``execute:<s>`` /
        ``conform`` phases; every operator below reports into it.  Costs are
        accumulated in a per-query :class:`CostModel` and merged back into
        ``db.cost``, so the returned stats are isolated per invocation.

        *guard* is a :class:`~repro.resilience.QueryGuard` enforced at every
        operator boundary; its deadline and budgets cover the whole call.
        Every failure — a guard trip or a strategy error — propagates as its
        typed :class:`~repro.errors.ReproError`; the engine never retries or
        re-answers a query with another strategy.

        Every physical strategy scores a preference run with the fused
        group evaluation of :mod:`repro.pexec.batchscore`; ``reference``
        keeps the per-preference fold it is checked against.

        *columnar* routes execution through the columnar executor
        (:mod:`repro.columnar`).  A plan shape the columnar executor does not
        support silently falls back to the requested row *strategy*
        (a capability miss); any other typed error inside the columnar
        executor propagates like any other.  ``stats.mode`` reports which
        executor actually produced the result.
        """
        if strategy not in STRATEGIES:
            raise ExecutionError(
                f"unknown strategy {strategy!r}; choose one of {', '.join(STRATEGIES)}"
            )
        if tracer is None:
            tracer = current_tracer()
        if guard is None:
            guard = current_guard()
        return self._run_once(plan, strategy, tracer, guard, columnar=bool(columnar))

    def _run_once(
        self, plan: PlanNode, strategy: str, tracer, guard,
        *, columnar: bool = False,
    ) -> QueryResult:
        """One execution under an installed guard."""
        with use_tracer(tracer), use_guard(guard), tracer.span(
            "query", label=strategy
        ) as root:
            root.set("strategy", strategy)
            original_schema = plan.schema(self.db.catalog)
            with tracer.span("prepare"):
                widened = self.prepare(plan)
            target_schema = widened.schema(self.db.catalog)

            query_cost = CostModel()
            # The per-query cost model doubles as the resilience layer's
            # data-volume choke point: every strategy charges scans and
            # materializations through it, so attaching the guard here covers
            # the whole execution without per-site plumbing.
            query_cost.guard = guard if guard.enabled else None
            started = time.perf_counter()
            mode = "row"
            # Installed for this context only, never assigned to the
            # database: one snapshot serves many queries at once.
            with use_query_cost(self.db, query_cost):
                result = None
                executed_plan = widened
                if columnar:
                    result = self._run_columnar(widened, tracer)
                if result is not None:
                    mode = "columnar"
                else:
                    if strategy in _OPTIMIZED_STRATEGIES:
                        with tracer.span("optimize"):
                            executed_plan = self.optimizer.optimize(widened)
                    with tracer.span(f"execute:{strategy}") as execute_span:
                        result = self._dispatch(executed_plan, strategy)
                        execute_span.add("rows_out", len(result))
                with tracer.span("conform"):
                    result = conform(result, target_schema)
                if guard.enabled:
                    guard.note_rows(len(result))
                    guard.check()
            elapsed = time.perf_counter() - started
            root.add("rows_out", len(result))
            root.set("mode", mode)

            stats = ExecutionStats(
                strategy=strategy,
                wall_time=elapsed,
                rows=len(result),
                cost=query_cost.snapshot(),
                operators=dict(query_cost.operator_calls),
                trace=root if tracer.enabled else None,
                mode=mode,
            )
        return QueryResult(result, stats, plan, executed_plan, original_schema)

    def _run_columnar(self, widened, tracer):
        """The columnar attempt inside one `_run_once` call.

        Returns the relation, or ``None`` when the row path must take over
        on :exc:`~repro.errors.ColumnarUnsupported` (a capability miss).
        Every other error, guard trips included, propagates typed.
        """
        with tracer.span("engine.columnar") as span:
            try:
                result = evaluate_columnar(widened, self.db, self.aggregate)
            except ColumnarUnsupported as err:
                span.set("fallback", "unsupported")
                span.set("cause", str(err))
                return None
            span.set("mode", "columnar")
            span.add("rows_out", len(result))
            return result

    def _dispatch(self, plan: PlanNode, strategy: str) -> PRelation:
        if strategy == "gbu":
            return execute_gbu(plan, self.db, self.aggregate)
        if strategy == "bu":
            return execute_bu(plan, self.db, self.aggregate)
        if strategy == "ftp":
            return execute_ftp(plan, self.db, self.aggregate)
        if strategy == "plugin-rma":
            return execute_plugin_rma(plan, self.db, self.aggregate)
        if strategy == "plugin-shared":
            return execute_plugin_shared(plan, self.db, self.aggregate)
        return evaluate_reference(plan, self.db.catalog, self.aggregate)
