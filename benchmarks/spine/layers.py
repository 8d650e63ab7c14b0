"""What both workload families share: preference specs, the engine's
stages called one public function at a time, and span medians."""

from __future__ import annotations

import statistics

from repro.core.algebra import project
from repro.core.preference import Preference
from repro.core.scoring import around_score, recency_score
from repro.engine.expressions import Attr, InList, cmp, eq
from repro.filtering import ranked
from repro.obs import Tracer
from repro.pexec.conform import conform
from repro.pexec.group_bottom_up import execute_gbu

from .calib import CAL_REF_MS
from .trace import engine_self_ms, self_times

#: The database is the benchmark's fixture: the program's IMDB generator at a
#: fixed seed.  ``--seed`` makes everything asked of it — preferences, users,
#: op list.  (A per-seed database moved query_p50 by 5 % between seeds, twice
#: the run-to-run noise, without exercising anything new.)
DATA_SEED = 2012
#: Sampled queries and sampled writes the traced pass replays.
REPLAYED = 24
#: Replayed queries also run under every strategy for the baseline metrics.
BASELINED = 4
STRATEGIES = ("gbu", "bu", "ftp", "reference")

ENGINE_STAGES = (
    "pexec.prepare",
    "optimizer.optimize",
    "pexec.execute",
    "pexec.conform",
    "pexec.present",
)


def pref_from_spec(spec: dict) -> Preference:
    """The preference a JSON-able op-list spec stands for."""
    kind, attr, value = spec["cond"]
    if kind == "eq":
        condition = eq(attr, value)
    elif kind == "in":
        condition = InList(Attr(attr), value)
    else:
        condition = cmp(attr, ">=", value)
    score = spec["score"]
    if score == "recency":
        score = recency_score("year", 2011)
    elif score == "around":
        score = around_score("duration", 120)
    return Preference(spec["name"], spec["rel"], condition, score, spec["conf"])


def staged_engine(rec, session, compiled):
    """Run a compiled query as the default strategy does, one span per
    stage; returns the presented p-relation."""
    db, engine = session.db, session.engine
    with rec.span("pexec.prepare"):
        schema = compiled.plan.schema(db.catalog)
        prepared = engine.prepare(compiled.plan)
    with rec.span("optimizer.optimize"):
        optimized = engine.optimizer.optimize(prepared)
    with rec.span("pexec.execute"):
        relation = execute_gbu(optimized, db, engine.aggregate)
    with rec.span("pexec.conform"):
        relation = conform(relation, prepared.schema(db.catalog))
    with rec.span("pexec.present"):
        if compiled.order_by:
            relation = ranked(relation, compiled.order_by)
        return project(relation, [c.qualified_name for c in schema.columns])


class EngineSplit:
    """The engine-internal split, from the program's own span trees."""

    def __init__(self) -> None:
        self._self_ms: list[dict] = []
        self._costs: list[dict] = []

    def traced_execute(self, rec, request: int, session, query) -> None:
        with rec.span("obs.traced_execute", request) as span:
            result = session.execute(query, tracer=Tracer())
            result.presented()
        tree = result.stats.trace.to_dict()
        span["engine"] = tree
        self._self_ms.append(engine_self_ms(tree))
        self._costs.append(dict(result.stats.cost, rows=max(1, result.stats.rows)))

    def _self(self, prefix: str = "", suffix: str = "") -> float:
        return statistics.median(
            sum(ms for name, ms in per.items()
                if name.startswith(prefix) and name.endswith(suffix))
            for per in self._self_ms
        )

    def metrics(self, scale: float) -> dict:
        """Self times (traced raw ms times *scale*) and exact counts;
        nothing when no query was executed under the tracer."""
        if not self._self_ms:
            return {}
        prefer = self._self(suffix=".prefer") + self._self(prefix="prefer.")
        executed = statistics.median(
            sum(ms for name, ms in per.items()
                if name not in ("query", "prepare", "optimize", "conform")
                and not name.startswith("optimize."))
            for per in self._self_ms
        )
        costs = self._costs
        return {
            "engine.native_self_ms": self._self(prefix="native.") * scale,
            "filtering.topk_self_ms": self._self(suffix=".topk") * scale,
            "pexec.prefer_self_ms": prefer * scale,
            "pexec.prefer_share": prefer / executed,
            "engine.tuples_scanned_per_query": statistics.mean(c["tuples_scanned"] for c in costs),
            "engine.tuples_materialized_per_query": statistics.mean(
                c["tuples_materialized"] for c in costs
            ),
            "engine.index_lookups_per_query": statistics.mean(c["index_lookups"] for c in costs),
            "engine.rows_examined_per_result": statistics.mean(
                c["tuples_scanned"] / c["rows"] for c in costs
            ),
        }


def baselines(rec, median, sessions_and_queries) -> dict:
    """Every strategy and the columnar executor on the same few queries."""
    if not sessions_and_queries:
        return {}
    runs = [(s, {"strategy": s}) for s in STRATEGIES] + [("columnar", {"columnar": True})]
    timings = {}
    for label, kwargs in runs:
        for request, (session, query) in enumerate(sessions_and_queries):
            with rec.span(f"baseline.{label}", request):
                session.execute(query, **kwargs).presented()
        timings[label] = median(f"baseline.{label}")
    out = {f"pexec.strategy_ms.{s}": timings[s] for s in STRATEGIES}
    out["columnar.query_ms"] = timings["columnar"]
    out["pexec.default_regret"] = timings["gbu"] / min(timings.values())
    return out


class Medians:
    """Calibrated median ms per span name (0 when the span never ran)."""

    def __init__(self, rec, clock) -> None:
        self.rec = rec
        self.clock = clock

    def __call__(self, name: str) -> float:
        values = [
            self.clock.calibrated_ms(span["start"], span["end"])
            for span in self.rec.named(name)
        ]
        return statistics.median(values) if values else 0.0

    def self_ms(self, name: str) -> float:
        """Median raw ms spans so named spent outside their child spans: for
        ``staged.query`` that is what recording the stages itself costs."""
        own = self_times(self.rec.spans)
        return statistics.median(own[span["id"]] for span in self.rec.named(name)) * 1e3

    def per_request(self, names) -> dict[int, float]:
        """Calibrated ms per request id, summed over the spans so named."""
        sums: dict[int, float] = {}
        for span in self.rec.spans:
            if span["name"] in names:
                took = self.clock.calibrated_ms(span["start"], span["end"])
                sums[span["request"]] = sums.get(span["request"], 0.0) + took
        return sums

    def paired(self, numerator, denominator, combine) -> float:
        """Median over requests of ``combine(a, b)``: *a* the request's ms
        in the *numerator* spans, *b* in the *denominator* spans.  Pairing
        cancels the cost differences between the replayed queries."""
        top, bottom = self.per_request(numerator), self.per_request(denominator)
        return statistics.median(combine(top[r], bottom[r]) for r in bottom)

    def raw_scale(self) -> float:
        """Factor turning the program's own raw ms into calibrated ms."""
        return CAL_REF_MS / statistics.median(self.clock.cal_ms)
