"""Plug-in baselines: rewrite → materialize → aggregate on a black-box DBMS.

The paper's comparison point (§I, §VII): a layer on *top* of the database
that never sees inside the engine.  Query translation "conceptually involves
the following steps: (Rewrite) the preferences are integrated as standard
query conditions producing a set of new queries, (Materialize) the new
queries are executed and (Aggregate) the partial results are combined into a
single ranked list."

Two implementations are provided, matching the paper's "two implementations
of the plug-in approach":

* :func:`execute_plugin_rma` — the straightforward translation: one full
  query per preference (the rewritten query re-executes the entire
  non-preference query with the preference condition appended), plus one
  query for the base result.  Work grows linearly with |λ| with a large
  constant.
* :func:`execute_plugin_shared` — a smarter plug-in that materializes the
  non-preference result once, then issues one selection query per preference
  against the materialized table.  Still outside the engine (one round-trip
  and one scan per preference, no operator-level optimization), but it
  avoids re-running the joins.

Both share FtP's region skeleton, so filtering operators and set operations
compose the same way.
"""

from __future__ import annotations

from ..core.aggregates import F_S, AggregateFunction
from ..core.prelation import PRelation
from ..core.scorepair import IDENTITY, ScorePair
from ..engine.database import Database
from ..engine.table import Row
from ..obs import current_tracer
from ..plan.analysis import strip_prefers
from ..plan.nodes import Materialized, PlanNode, Select
from .conform import conform
from .ftp import RegionEvaluator, RegionFn


def execute_plugin_rma(
    plan: PlanNode, db: Database, aggregate: AggregateFunction = F_S
) -> PRelation:
    """Rewrite/Materialize/Aggregate with one full query per preference."""
    return RegionEvaluator(
        db, aggregate, _make_region(db, aggregate, shared=False)
    ).evaluate(plan)


def execute_plugin_shared(
    plan: PlanNode, db: Database, aggregate: AggregateFunction = F_S
) -> PRelation:
    """Plug-in variant sharing one materialized base result across preferences."""
    return RegionEvaluator(
        db, aggregate, _make_region(db, aggregate, shared=True)
    ).evaluate(plan)


def _make_region(db: Database, aggregate: AggregateFunction, shared: bool) -> RegionFn:
    def run_region(plan: PlanNode) -> PRelation:
        tracer = current_tracer()
        non_preference = strip_prefers(plan)
        target_schema = non_preference.schema(db.catalog)

        # Materialize the base (non-preference) answer — the plug-in needs it
        # anyway, to list tuples that match no preference with default pairs.
        with tracer.span("plugin.base-query") as span:
            schema, rows = db.execute(non_preference, optimize=True)
            span.add("rows_out", len(rows))
        db.cost.materialize(len(rows))
        base = conform(PRelation(schema, rows), target_schema)

        partials: dict[Row, ScorePair] = {}
        combine = aggregate.combine
        for preference in plan.preferences():
            # Rewrite: the preference condition becomes a standard constraint.
            with tracer.span("plugin.query", label=preference.name) as span:
                if shared:
                    rewritten = Select(
                        Materialized(target_schema, base.rows), preference.condition
                    )
                    part_schema, part_rows = db.execute(rewritten, optimize=False)
                    part = PRelation(part_schema, part_rows)
                else:
                    rewritten = Select(non_preference, preference.condition)
                    part_schema, part_rows = db.execute(rewritten, optimize=True)
                    part = conform(PRelation(part_schema, part_rows), target_schema)
                db.cost.materialize(len(part.rows))
                db.cost.count_operator("plugin-query")

                # Score the partial result in the plug-in layer.
                scoring = preference.scoring.compile(target_schema)
                confidence = preference.confidence
                combined = 0
                for row in part.rows:
                    fresh = ScorePair(scoring(row), confidence)
                    previous = partials.get(row)
                    if previous is None:
                        partials[row] = fresh
                    else:
                        partials[row] = combine(previous, fresh)
                        combined += 1
                span.add("rows_out", len(part.rows))
                span.add("aggregate.combine", combined)

        # Aggregate: merge partial pairs back onto the base answer.
        with tracer.span("plugin.aggregate") as span:
            pairs = [partials.get(row, IDENTITY) for row in base.rows]
            span.add("rows_out", len(base.rows))
            span.add("scores", len(partials))
        return PRelation(target_schema, list(base.rows), pairs)

    return run_region
