"""From parsed SQL to extended query plans.

This is the "query parser" box of the paper's architecture (Fig. 6): it
takes the user query plus its preferences and produces a baseline extended
query plan, keeping the order of operators as written.  Widening with the
attributes prefer operators need happens later, in
:meth:`repro.pexec.ExecutionEngine.prepare`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.preference import Preference
from ..core.scoring import ExprScore
from ..engine.catalog import Catalog
from ..engine.expressions import TRUE, Expr, conjoin, conjuncts
from ..errors import ParseError, PreferenceError
from ..plan.builder import natural_join_condition
from ..plan.nodes import (
    Difference,
    Intersect,
    Join,
    LeftJoin,
    PlanNode,
    Prefer,
    Project,
    Relation,
    Select,
    TopK,
    Union,
)
from .sql.ast import InlinePreference, SelectBlock, SetStatement, Statement
from .sql.parser import parse


@dataclass(frozen=True)
class PreferentialQuery:
    """A compiled preferential query: the plan plus presentation hints."""

    plan: PlanNode
    order_by: str | None = None  # rank the final result by 'score'/'conf'
    text: str | None = None
    aggregate: str | None = None  # USING clause: aggregate function name


class QueryCompiler:
    """Compiles SQL text into :class:`PreferentialQuery` objects.

    The registry may hold plain preferences or
    :class:`~repro.core.context.ContextualPreference` wrappers; the latter
    are resolved against the context returned by *context_provider* at
    compile time (an inactive contextual preference named in a PREFERRING
    clause is simply skipped — it does not apply in this context).
    """

    def __init__(
        self,
        catalog: Catalog,
        registry: dict[str, object] | None = None,
        context_provider=None,
    ):
        self.catalog = catalog
        self.registry = registry if registry is not None else {}
        self.context_provider = context_provider

    def compile(self, text: str) -> PreferentialQuery:
        statement = parse(text)
        plan, order_by, aggregate = self._statement(statement)
        return PreferentialQuery(plan, order_by, text, aggregate)

    # -- statement dispatch -----------------------------------------------------

    def _statement(
        self, statement: Statement
    ) -> tuple[PlanNode, str | None, str | None]:
        if isinstance(statement, SetStatement):
            left, _, left_aggregate = self._statement(statement.left)
            right, _, right_aggregate = self._statement(statement.right)
            if left_aggregate != right_aggregate:
                raise ParseError(
                    "all blocks of a set statement must share one USING "
                    "aggregate (F must be uniform across a query)"
                )
            node = {"union": Union, "intersect": Intersect, "except": Difference}[
                statement.op
            ](left, right)
            return node, None, left_aggregate
        return self._select_block(statement)

    def _select_block(
        self, block: SelectBlock
    ) -> tuple[PlanNode, str | None, str | None]:
        plan = self._from_clause(block)
        pre, post = self._split_where(block.where)
        if pre is not None:
            plan = Select(plan, pre)
        preferences = self._preferences(block)
        if preferences:
            plan = Prefer(plan, preferences)
        if block.attrs:
            plan = Project(plan, block.attrs)
        if post is not None:
            plan = Select(plan, post)
        if block.top_k is not None:
            plan = TopK(plan, block.top_k, block.top_by)
        return plan, block.order_by, block.aggregate

    # -- FROM -----------------------------------------------------------------

    def _from_clause(self, block: SelectBlock) -> PlanNode:
        refs = block.tables
        plan: PlanNode = Relation(refs[0].name, refs[0].alias)
        for ref in refs[1:]:
            right = Relation(ref.name, ref.alias)
            if ref.join_condition is not None:
                if ref.outer:
                    plan = LeftJoin(plan, right, ref.join_condition)
                else:
                    plan = Join(plan, right, ref.join_condition)
            elif ref.natural:
                plan = Join(plan, right, natural_join_condition(self.catalog, plan, right))
            else:
                plan = Join(plan, right, TRUE)  # comma: conditions come from WHERE
        return plan

    # -- WHERE ------------------------------------------------------------------

    @staticmethod
    def _split_where(where: Expr | None) -> tuple[Expr | None, Expr | None]:
        """Split WHERE into the boolean part and the score/conf post-filter.

        Conditions on ``score``/``conf`` depend on preference evaluation, so
        they are placed above the prefer operators (Property 4.1 would not
        let them commute downward anyway).
        """
        if where is None:
            return None, None
        pre: list[Expr] = []
        post: list[Expr] = []
        for part in conjuncts(where):
            (post if part.references_score() else pre).append(part)
        pre_expr = conjoin(pre) if pre else None
        post_expr = conjoin(post) if post else None
        return pre_expr, post_expr

    # -- PREFERRING ----------------------------------------------------------------

    def _preferences(self, block: SelectBlock) -> list[Preference]:
        out: list[Preference] = []
        for index, entry in enumerate(block.preferring):
            if isinstance(entry, str):
                registered = self.registry.get(entry.lower())
                if registered is None:
                    raise ParseError(f"unknown preference {entry!r}; register it first")
                from ..core.context import ContextualPreference

                if isinstance(registered, ContextualPreference):
                    context = self.context_provider() if self.context_provider else {}
                    if registered.is_active(context):
                        out.append(registered.preference)
                else:
                    out.append(registered)
            elif isinstance(entry, InlinePreference):
                out.append(self._inline(entry, block, index))
            else:  # pragma: no cover - parser guarantees the two cases
                raise PreferenceError(f"bad PREFERRING entry {entry!r}")
        return out

    def _inline(
        self, entry: InlinePreference, block: SelectBlock, index: int
    ) -> Preference:
        relations = entry.relations or self._infer_relations(entry, block)
        return Preference(
            name=f"inline#{index + 1}",
            relations=relations,
            condition=entry.condition,
            scoring=ExprScore(entry.score_expr),
            confidence=entry.confidence,
        )

    def _infer_relations(
        self, entry: InlinePreference, block: SelectBlock
    ) -> tuple[str, ...]:
        """The FROM tables owning the inline preference's attributes."""
        attrs = entry.condition.attributes() | entry.score_expr.attributes()
        owners: list[str] = []
        for ref in block.tables:
            name = (ref.alias or ref.name).upper()
            base = ref.name
            if not self.catalog.has_table(base):
                continue
            schema = self.catalog.table(base).schema
            if ref.alias:
                schema = schema.rename(name)
            if any(schema.has(a) for a in attrs):
                owners.append(name)
        if owners:
            return tuple(owners)
        return tuple((ref.alias or ref.name).upper() for ref in block.tables)
