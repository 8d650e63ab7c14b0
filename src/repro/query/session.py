"""High-level user API: a session over a preference-aware database.

Applications talk to :class:`Session`: register preferences once (the
system's preference store), then run SQL with ``PREFERRING`` clauses; plans,
optimization and strategy choice are handled underneath, mirroring how the
paper expects "preference-aware applications [to] provide an appropriate
interface ... preferences are automatically integrated into their queries".
"""

from __future__ import annotations

from typing import Iterable

from ..core.aggregates import F_S, AggregateFunction
from ..core.context import ContextualPreference
from ..core.preference import Preference
from ..engine.database import Database
from ..errors import PreferenceError
from ..filtering import ranked
from ..optimizer import OptimizerConfig
from ..pexec.engine import (
    _OPTIMIZED_STRATEGIES,
    DEFAULT_STRATEGY,
    ExecutionEngine,
    QueryResult,
)
from ..plan.nodes import PlanNode
from ..resilience import QueryGuard
from .model import PreferentialQuery, QueryCompiler


class Session:
    """A connection-like facade bundling database, preferences and engine."""

    def __init__(
        self,
        db: Database,
        strategy: str = DEFAULT_STRATEGY,
        aggregate: AggregateFunction = F_S,
        optimizer_config: OptimizerConfig | None = None,
    ):
        self.db = db
        self.strategy = strategy
        self.engine = ExecutionEngine(db, aggregate, optimizer_config)
        self.preferences: dict[str, Preference | ContextualPreference] = {}
        self.context: dict = {}
        self.compiler = QueryCompiler(
            db.catalog, self.preferences, context_provider=lambda: self.context
        )

    # -- preference store ----------------------------------------------------

    def register(self, preference: "Preference | ContextualPreference") -> None:
        """Add a (possibly context-dependent) preference under its name."""
        key = preference.name.lower()
        if key in self.preferences:
            raise PreferenceError(f"preference {preference.name!r} already registered")
        self.preferences[key] = preference

    def register_all(
        self, preferences: "Iterable[Preference | ContextualPreference]"
    ) -> None:
        for preference in preferences:
            self.register(preference)

    def unregister(self, name: str) -> None:
        self.preferences.pop(name.lower(), None)

    # -- external context ------------------------------------------------------

    def set_context(self, **values) -> None:
        """Update the session's external context (see repro.core.context).

        Contextual preferences referenced in PREFERRING clauses apply only
        while the context satisfies their activation condition::

            session.set_context(company="alone", daytime="evening")
        """
        self.context.update(values)

    def clear_context(self) -> None:
        self.context.clear()

    # -- querying ----------------------------------------------------------------

    def compile(self, text: str) -> PreferentialQuery:
        """Parse + plan a preferential SQL query without running it."""
        return self.compiler.compile(text)

    def execute(
        self,
        query: str | PlanNode | PreferentialQuery,
        strategy: str | None = None,
        tracer=None,
        *,
        guard: QueryGuard | None = None,
        columnar: bool | None = None,
    ) -> QueryResult:
        """Run SQL text, a plan, or a compiled query; returns a QueryResult.

        Pass a :class:`repro.obs.Tracer` as *tracer* to collect a
        per-operator execution trace (``result.stats.trace``).

        *guard* is a per-call :class:`~repro.resilience.QueryGuard`
        (deadline, row and tuple budgets, cancellation).  Every failure
        propagates as its typed :class:`~repro.errors.ReproError`; nothing
        is retried or re-answered by another strategy.

        *columnar* routes the query through the columnar executor (see
        :mod:`repro.columnar`); results are byte-identical to the row engine,
        with automatic fallback when the plan shape is unsupported.
        ``result.stats.mode`` says which executor answered.
        """
        order_by = None
        aggregate_name = None
        if isinstance(query, str):
            query = self.compile(query)
        if isinstance(query, PreferentialQuery):
            order_by = query.order_by
            aggregate_name = query.aggregate
            plan = query.plan
        else:
            plan = query
        engine = self.engine
        if aggregate_name is not None:
            from ..core.aggregates import get_aggregate

            engine = ExecutionEngine(
                self.db, get_aggregate(aggregate_name), self.engine.optimizer.config
            )
        result = engine.run(
            plan,
            strategy or self.strategy,
            tracer=tracer,
            guard=guard,
            columnar=columnar,
        )
        if order_by:
            result.relation = ranked(result.relation, order_by)
        return result

    def explain(self, query: "str | PlanNode | PreferentialQuery", strategy: str | None = None) -> str:
        """EXPLAIN: the parsed extended plan and the plan the strategy runs.

        For the strategies that run the preference-aware optimizer
        (``_OPTIMIZED_STRATEGIES`` in :mod:`repro.pexec.engine`) the second
        tree is its output; for the others it is the widened parser output
        they organize themselves.
        """
        from ..plan.printer import explain as render

        if isinstance(query, str):
            query = self.compile(query)
        plan = query.plan if isinstance(query, PreferentialQuery) else query
        strategy = strategy or self.strategy
        prepared = self.engine.prepare(plan)
        if strategy in _OPTIMIZED_STRATEGIES:
            executed = self.engine.optimizer.optimize(prepared)
            label = f"optimized plan ({strategy})"
        else:
            executed = prepared
            label = f"prepared plan ({strategy})"
        return (
            "extended query plan:\n"
            + render(plan)
            + f"\n\n{label}:\n"
            + render(executed)
        )

    def explain_analyze(
        self, query: "str | PlanNode | PreferentialQuery", strategy: str | None = None
    ) -> str:
        """Execute under a collecting tracer and render the EXPLAIN ANALYZE view.

        The output is the executed plan followed by the per-operator trace
        (rows in/out, score-relation sizes, aggregate applications, wall
        time per operator) and the query's summary statistics.
        """
        from ..obs import Tracer
        from ..plan.printer import explain_analyze as render

        tracer = Tracer()
        result = self.execute(query, strategy=strategy, tracer=tracer)
        return (
            render(result.executed_plan, result.stats.trace)
            + "\n\n"
            + result.stats.summary()
        )

    def rows(self, query, strategy: str | None = None) -> list[tuple]:
        """Convenience: execute and return presented rows with (score, conf).

        Each returned tuple is ``(*user_columns, score, conf)``.
        """
        result = self.execute(query, strategy)
        presented = result.presented()
        return [row + (score, conf) for row, score, conf in presented.triples()]
