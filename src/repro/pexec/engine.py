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

import math
import time
from dataclasses import dataclass, field

from ..columnar import evaluate_columnar
from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..core.scorepair import ScorePair
from ..engine.database import Database
from ..engine.iosim import CostModel
from ..errors import (
    CircuitOpen,
    ColumnarUnsupported,
    DataCorruption,
    ExecutionError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    ResourceExhausted,
    TransientFault,
)
from ..obs import current_tracer, use_tracer
from ..optimizer import OptimizerConfig, PreferenceOptimizer
from ..resilience import (
    ResiliencePolicy,
    current_faults,
    current_guard,
    use_faults,
    use_guard,
)
from ..plan.analysis import (
    qualify_preferences,
    required_carry_attributes,
    widen_projections,
)
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

    When the query ran under a :class:`~repro.resilience.ResiliencePolicy`
    and any attempt failed before this result was produced, ``degraded`` is
    ``True``, ``failures`` lists the causes (oldest first) and ``attempts``
    counts every execution attempt including the successful one; the same
    information is annotated on the query's tracer span.
    """

    strategy: str
    wall_time: float
    rows: int
    cost: dict[str, int] = field(default_factory=dict)
    operators: dict[str, int] = field(default_factory=dict)
    trace: object | None = None
    degraded: bool = False
    failures: list[str] = field(default_factory=list)
    attempts: int = 1
    #: Which executor produced the result: ``"row"`` (the strategy named in
    #: ``strategy``) or ``"columnar"`` (the columnar executor).
    mode: str = "row"

    def summary(self) -> str:
        suffix = ""
        if self.degraded:
            suffix = f" (degraded after {self.attempts} attempts)"
        return (
            f"{self.strategy}: {self.wall_time * 1e3:.2f} ms, {self.rows} rows, "
            f"{self.cost.get('total_io', 0)} simulated page I/Os{suffix}"
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


def _check_integrity(result: PRelation, strategy: str) -> None:
    """Result gate: every score pair must be well-formed.

    A single preference scores in ``[0, 1]`` and aggregates only ever
    combine non-negative finite scores and confidences, so any NaN,
    infinity or negative component proves the pair was corrupted somewhere
    between the strategy and the caller.  Raises
    :exc:`~repro.errors.DataCorruption` (a typed resilience error the
    fallback chain can recover from) instead of returning a wrong answer.
    """
    for position, (score, conf) in enumerate(result.pairs):
        score_ok = score is None or (math.isfinite(score) and score >= 0.0)
        conf_ok = math.isfinite(conf) and conf >= 0.0
        if not (score_ok and conf_ok):
            raise DataCorruption(
                f"strategy {strategy!r} produced an invalid score pair "
                f"⟨{score}, {conf}⟩ at result position {position}"
            )


class ExecutionEngine:
    """Runs extended query plans against a :class:`Database`."""

    def __init__(
        self,
        db: Database,
        aggregate: AggregateFunction = F_S,
        optimizer_config: OptimizerConfig | None = None,
        tracer=None,
        *,
        strict: bool = False,
        resilience: ResiliencePolicy | None = None,
    ):
        self.db = db
        self.aggregate = aggregate
        #: When *strict*, every optimizer rule fire is audited against the
        #: static plan verifier and an invariant-breaking rewrite raises
        #: :class:`~repro.errors.RewriteViolation` instead of executing.
        self.strict = strict
        self.optimizer = PreferenceOptimizer(
            db.catalog, optimizer_config, strict=strict, default_aggregate=aggregate
        )
        #: Default tracer for every :meth:`run`; ``None`` means "use the
        #: ambient tracer" (a zero-cost no-op unless one is installed).
        self.tracer = tracer
        #: Default degradation policy for every :meth:`run`; ``None`` means
        #: fail-fast (one attempt, no fallback) — the historical behavior.
        self.resilience = resilience

    def prepare(self, plan: PlanNode) -> PlanNode:
        """Widen the plan's projections (the parser step of §VI).

        Every attribute a prefer operator uses, every join attribute and
        every base-relation primary key is carried through projections so
        score relations stay keyable.
        """
        plan = qualify_preferences(plan, self.db.catalog)
        carry = required_carry_attributes(plan, self.db.catalog)
        return widen_projections(plan, carry, self.db.catalog)

    def run(
        self,
        plan: PlanNode,
        strategy: str = "gbu",
        tracer=None,
        *,
        guard=None,
        faults=None,
        resilience: ResiliencePolicy | None = None,
        columnar: bool | None = None,
    ) -> QueryResult:
        """Execute *plan* with *strategy*, returning result and statistics.

        *tracer* (or the engine's default, or the ambient tracer) receives a
        ``query`` span with ``prepare`` / ``optimize`` / ``execute:<s>`` /
        ``conform`` phases; every operator below reports into it.  Costs are
        accumulated in a per-query :class:`CostModel` and merged back into
        ``db.cost``, so the returned stats are isolated per invocation.

        *guard* is a :class:`~repro.resilience.QueryGuard` enforced at every
        operator boundary; its deadline and budgets cover the whole call,
        including retries and fallback strategies.  *faults* is a
        :class:`~repro.resilience.FaultPlan` for chaos testing.  *resilience*
        (or the engine default) enables retry-with-backoff, per-strategy
        circuit breakers and the strategy fallback chain; a result produced
        after any failure has ``stats.degraded`` set and the causes recorded
        both in ``stats.failures`` and on the query's tracer span.

        Preference runs are scored by the fused group evaluation of
        :mod:`repro.pexec.batchscore` unless a surrounding
        ``use_batch_scoring(False)`` selects the sequential per-preference
        fold.

        *columnar* routes execution through the columnar executor
        (:mod:`repro.columnar`).  A plan shape the columnar executor does not
        support silently falls back to the requested row *strategy*
        (capability miss, not degradation); a typed fault inside the columnar
        executor falls back too, but marks the result ``degraded`` with the
        cause recorded.  ``stats.mode`` reports which executor actually
        produced the result.
        """
        if strategy not in STRATEGIES:
            raise ExecutionError(
                f"unknown strategy {strategy!r}; choose one of {', '.join(STRATEGIES)}"
            )
        if tracer is None:
            tracer = self.tracer if self.tracer is not None else current_tracer()
        if guard is None:
            guard = current_guard()
        if faults is None:
            faults = current_faults()
        if resilience is None:
            resilience = self.resilience
        if resilience is None:
            return self._run_once(
                plan, strategy, tracer, guard, faults, columnar=bool(columnar)
            )
        return self._run_resilient(
            plan, strategy, tracer, guard, faults, resilience,
            columnar=bool(columnar),
        )

    def _run_resilient(
        self, plan: PlanNode, strategy: str, tracer, guard, faults, resilience,
        *, columnar: bool = False,
    ) -> QueryResult:
        """Retry × circuit breaker × fallback orchestration around `_run_once`.

        Transient faults — and detected result corruption, which is just as
        attempt-local — are retried on the same strategy with exponential
        backoff (clamped to the guard's deadline); any other library error
        moves straight to the next strategy in the fallback chain.  Guard
        trips (timeout, cancellation, exhausted budgets) always propagate:
        their budgets span the whole query, so another attempt could only
        trip them again.
        """
        failures: list[str] = []
        last_error: ReproError | None = None
        attempts = 0
        retry = resilience.retry
        for candidate in resilience.chain_for(strategy):
            if candidate not in STRATEGIES:
                continue
            breaker = resilience.breaker(candidate)
            if breaker is not None and not breaker.allow():
                failures.append(f"{candidate}: circuit open")
                if last_error is None:
                    last_error = CircuitOpen(candidate)
                continue
            for attempt in range(1, max(1, retry.attempts) + 1):
                attempts += 1
                try:
                    result = self._run_once(
                        plan, candidate, tracer, guard, faults, columnar=columnar
                    )
                except (TransientFault, DataCorruption) as err:
                    last_error = err
                    failures.append(f"{candidate}#{attempt}: {type(err).__name__}: {err}")
                    if breaker is not None:
                        breaker.record_failure()
                    if attempt < max(1, retry.attempts):
                        retry.pause(attempt, guard)
                        continue
                    break  # retries exhausted: fall back to the next strategy
                except (QueryTimeout, QueryCancelled, ResourceExhausted):
                    raise
                except ReproError as err:
                    last_error = err
                    failures.append(f"{candidate}#{attempt}: {type(err).__name__}: {err}")
                    if breaker is not None:
                        breaker.record_failure()
                    break  # non-transient: retrying the same strategy won't help
                else:
                    if breaker is not None:
                        breaker.record_success()
                    stats = result.stats
                    stats.attempts = attempts
                    if failures:
                        stats.degraded = True
                        stats.failures = list(failures)
                        span = stats.trace
                        if span is not None:
                            span.set("degraded", True)
                            span.set("failure_cause", failures[-1])
                            span.set("failures", list(failures))
                    return result
        assert last_error is not None  # the chain is never empty
        raise last_error

    def _run_once(
        self, plan: PlanNode, strategy: str, tracer, guard, faults,
        *, columnar: bool = False,
    ) -> QueryResult:
        """One execution attempt under an installed guard and fault plan."""
        with use_tracer(tracer), use_guard(guard), use_faults(faults), tracer.span(
            "query", label=strategy
        ) as root:
            root.set("strategy", strategy)
            original_schema = plan.schema(self.db.catalog)
            with tracer.span("prepare"):
                widened = self.prepare(plan)
            target_schema = widened.schema(self.db.catalog)

            outer_cost = self.db.cost
            query_cost = CostModel()
            # The per-query cost model doubles as the resilience layer's
            # data-volume choke point: every strategy charges scans and
            # materializations through it, so attaching the guard and fault
            # plan here covers the whole execution without per-site plumbing.
            query_cost.guard = guard if guard.enabled else None
            query_cost.faults = faults if faults.enabled else None
            self.db.cost = query_cost
            started = time.perf_counter()
            mode = "row"
            degraded_causes: list[str] = []
            try:
                result = None
                executed_plan = widened
                if columnar:
                    result = self._run_columnar(widened, tracer, degraded_causes)
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
                if faults.enabled:
                    if faults.corrupts("pexec.scores") and result.pairs:
                        victim = faults.pick(len(result.pairs))
                        result.pairs[victim] = ScorePair(float("nan"), -1.0)
                    # Chaos mode arms the result-integrity gate: a corrupted
                    # score pair must surface as a typed error, never as a
                    # silently wrong answer.
                    _check_integrity(result, strategy)
                if guard.enabled:
                    guard.note_rows(len(result))
                    guard.check()
            finally:
                self.db.cost = outer_cost
                outer_cost.merge(query_cost)
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
            if degraded_causes:
                stats.degraded = True
                stats.failures = list(degraded_causes)
                root.set("degraded", True)
                root.set("failure_cause", degraded_causes[-1])
                root.set("failures", list(degraded_causes))
        return QueryResult(result, stats, plan, executed_plan, original_schema)

    def _run_columnar(self, widened, tracer, degraded_causes):
        """The columnar attempt inside one `_run_once` call.

        Returns the relation, or ``None`` when the row path must take over:
        silently on :exc:`~repro.errors.ColumnarUnsupported` (capability
        miss), with the cause recorded in *degraded_causes* on a typed fault.
        Guard trips propagate — their budgets span the query, so the row
        engine would only trip them again.
        """
        with tracer.span("engine.columnar") as span:
            try:
                result = evaluate_columnar(
                    widened, self.db, self.aggregate, strict=self.strict
                )
            except ColumnarUnsupported as err:
                span.set("fallback", "unsupported")
                span.set("cause", str(err))
                return None
            except (TransientFault, DataCorruption) as err:
                span.set("fallback", "fault")
                span.set("cause", f"{type(err).__name__}: {err}")
                degraded_causes.append(
                    f"columnar: {type(err).__name__}: {err}"
                )
                return None
            span.set("mode", "columnar")
            span.add("rows_out", len(result))
            return result

    def explain_result(self, result: QueryResult, index: int = 0):
        """Provenance for one result tuple: each preference's contribution.

        Works on the widened relation the engine returns, so every attribute
        a preference reads is present; see :mod:`repro.pexec.provenance`.
        """
        from .provenance import explain_tuple

        preferences = [
            p.qualify(self.db.catalog) for p in result.plan.preferences()
        ]
        row = result.relation.rows[index]
        return explain_tuple(result.relation.schema, row, preferences, self.aggregate)

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
