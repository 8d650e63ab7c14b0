"""The observability layer: span trees, counters, and engine integration.

Covers the tentpole contracts: spans nest correctly, counters match the
QueryResult cardinalities, the default no-op tracer allocates nothing, and
every strategy (plus the optimizer) reports a per-operator trace.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import Session, Tracer, cmp, current_tracer, eq, use_tracer
from repro.core.preference import Preference
from repro.obs import NULL_SPAN, NULL_TRACER, traced_rows
from repro.pexec.engine import STRATEGIES, ExecutionEngine
from repro.plan.builder import scan

PHYSICAL = ("gbu", "bu", "ftp", "plugin-rma", "plugin-shared")


# ---------------------------------------------------------------------------
# Span / Tracer mechanics
# ---------------------------------------------------------------------------


def test_spans_nest_under_context_managers():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
        with tracer.span("middle"):
            pass
    tracer.finish()

    assert [child.name for child in tracer.root.children] == ["outer"]
    assert [child.name for child in outer.children] == ["middle", "middle"]
    assert outer.children[0].children[0].name == "inner"
    assert outer.children[1].children == []
    assert outer.find("inner") is outer.children[0].children[0]
    assert len(tracer.root.find_all("middle")) == 2


def test_span_times_are_inclusive_and_finish_is_idempotent():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            sum(range(10_000))
    first = outer.wall_time
    outer.finish()  # second finish must not restamp
    assert outer.wall_time == first
    assert outer.wall_time >= inner.wall_time >= 0.0


def test_tracer_count_credits_global_and_innermost_span():
    tracer = Tracer()
    with tracer.span("a") as a:
        tracer.count("rows_out", 3)
        with tracer.span("b") as b:
            tracer.count("rows_out", 2)
            tracer.count("scores")
    assert tracer.counters == {"rows_out": 5, "scores": 1}
    assert a.counters == {"rows_out": 3}
    assert b.counters == {"rows_out": 2, "scores": 1}
    assert a.total("rows_out") == 5  # subtree aggregation


def test_detached_push_pop_tolerates_out_of_order_exits():
    tracer = Tracer()
    a = tracer.span("a")
    tracer.push(a)
    b = tracer.span("b")
    tracer.push(b)
    # Generator teardown can pop the outer span first.
    tracer.pop(a)
    assert tracer.current() is tracer.root
    tracer.pop(b)  # no longer on the stack: must be a no-op
    assert tracer.current() is tracer.root
    assert a.children == [b]


def test_traced_rows_counts_and_finishes_on_exhaustion():
    tracer = Tracer()
    span = tracer.span("op")
    wrapped = traced_rows(iter([1, 2, 3]), span)
    assert span.counters.get("rows_out") is None  # nothing until iteration
    assert list(wrapped) == [1, 2, 3]
    assert span.counters["rows_out"] == 3
    assert span.wall_time > 0.0 or not span._open


def test_traced_rows_finishes_on_early_close():
    tracer = Tracer()
    span = tracer.span("op")
    wrapped = traced_rows(iter(range(100)), span)
    next(wrapped)
    next(wrapped)
    wrapped.close()
    assert span.counters["rows_out"] == 2


# ---------------------------------------------------------------------------
# No-op default
# ---------------------------------------------------------------------------


def test_default_tracer_is_the_noop_singleton():
    assert current_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.span("anything") is NULL_SPAN
    assert NULL_TRACER.current() is NULL_SPAN
    assert NULL_TRACER.finish() is NULL_SPAN


def test_noop_tracer_allocates_nothing():
    """Every no-op call returns the module singleton: zero allocations."""
    tracer = NULL_TRACER
    # Warm up any lazy caches before measuring.
    with tracer.span("warm") as span:
        span.add("rows_out", 1)
        tracer.count("rows_out", 1)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            with tracer.span("op", label="x") as span:
                span.add("rows_out", 1)
                span.set("k", "v")
                tracer.count("rows_out", 1)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    tracer_file = tracemalloc.Filter(True, "*repro/obs/tracer.py")
    stats = after.filter_traces([tracer_file]).compare_to(
        before.filter_traces([tracer_file]), "lineno"
    )
    grown = [s for s in stats if s.size_diff > 0]
    assert not grown, f"no-op tracer allocated: {grown}"
    assert NULL_SPAN.counters == {} and NULL_SPAN.attrs == {}


def test_use_tracer_restores_previous_tracer():
    tracer = Tracer()
    with use_tracer(tracer):
        assert current_tracer() is tracer
        inner = Tracer()
        with use_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is tracer
    assert current_tracer() is NULL_TRACER


def test_use_tracer_none_installs_the_noop_tracer():
    # Like use_guard(None): a worker handed "no tracer" traces nothing.
    with use_tracer(Tracer()):
        with use_tracer(None):
            assert current_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Engine integration: per-strategy traces and counter accuracy
# ---------------------------------------------------------------------------


def _example_plan(db, example_preferences):
    return (
        scan("MOVIES")
        .natural_join(scan("GENRES"), db.catalog)
        .select(cmp("year", ">=", 2005))
        .prefer(example_preferences["p1"])
        .top(5, by="score")
        .build()
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_produces_a_trace(movie_db, example_preferences, strategy):
    engine = ExecutionEngine(movie_db)
    tracer = Tracer()
    result = engine.run(_example_plan(movie_db, example_preferences), strategy, tracer=tracer)

    root = result.stats.trace
    assert root is not None and root.name == "query"
    assert root.attrs["strategy"] == strategy
    phases = [child.name for child in root.children]
    assert "prepare" in phases and "conform" in phases
    assert f"execute:{strategy}" in phases

    execute = root.find(f"execute:{strategy}")
    # Counter accuracy: the execute phase's rows_out is the result cardinality.
    assert execute.counters["rows_out"] == result.stats.rows == len(result.relation)
    if strategy != "reference":
        # Physical strategies report per-operator spans below the phase.
        assert execute.children, f"{strategy} produced no operator spans"


def test_untraced_run_has_no_trace(movie_db, example_preferences):
    engine = ExecutionEngine(movie_db)
    result = engine.run(_example_plan(movie_db, example_preferences), "gbu")
    assert result.stats.trace is None


def test_trace_counters_match_result_cardinalities(movie_db, example_preferences):
    engine = ExecutionEngine(movie_db)
    tracer = Tracer()
    result = engine.run(_example_plan(movie_db, example_preferences), "gbu", tracer=tracer)
    root = result.stats.trace
    # The root's own rows_out is the final cardinality; tracer-global totals
    # include it too (count() feeds both).
    assert root.counters["rows_out"] == len(result.relation)
    prefer_spans = [s for s in root.walk() if s.name == "gbu.prefer"]
    assert prefer_spans, "prefer operator left no span"
    # Score relation sizes are reported on the prefer spans.
    assert all("scores" in s.counters for s in prefer_spans)


def test_optimizer_reports_rule_spans(movie_db, example_preferences):
    engine = ExecutionEngine(movie_db)
    tracer = Tracer()
    engine.run(_example_plan(movie_db, example_preferences), "gbu", tracer=tracer)
    optimize = tracer.root.find("optimize")
    assert optimize is not None
    rules = optimize.find_all("optimize.rule")
    assert rules, "optimizer reported no rule spans"
    assert all("fired" in rule.attrs for rule in rules)
    fired = [rule for rule in rules if rule.attrs["fired"]]
    assert fired, "no optimizer rule fired on a prefer+select+join plan"
    assert tracer.counters.get("optimizer.rule_fired", 0) == len(fired)


def test_aggregate_apply_counts_reported(movie_db, example_preferences):
    """Overlapping preferences must report aggregate combine applications."""
    from repro.engine.expressions import TRUE

    everything = Preference("all", "MOVIES", TRUE, 0.5, 1.0)
    plan = (
        scan("MOVIES")
        .natural_join(scan("GENRES"), movie_db.catalog)
        .prefer(example_preferences["p1"])
        .prefer(everything)
        .build()
    )
    for strategy in PHYSICAL:
        tracer = Tracer()
        ExecutionEngine(movie_db).run(plan, strategy, tracer=tracer)
        assert tracer.root.total("aggregate.combine") > 0, strategy


def test_session_explain_analyze_renders_trace(movie_db, example_preferences):
    session = Session(movie_db)
    session.register_all(example_preferences.values())
    text = session.explain_analyze(
        "SELECT title FROM MOVIES NATURAL JOIN GENRES PREFERRING p1 TOP 3 BY score",
        strategy="ftp",
    )
    assert "executed plan:" in text
    assert "execution trace:" in text
    assert "execute:ftp" in text
    assert "ms]" in text


def test_ambient_tracer_reaches_nested_engine(movie_db, example_preferences):
    """Strategies pick up the ContextVar tracer without explicit plumbing."""
    engine = ExecutionEngine(movie_db)
    tracer = Tracer()
    with use_tracer(tracer):
        result = engine.run(_example_plan(movie_db, example_preferences), "ftp")
    assert result.stats.trace is not None
    assert tracer.root.find("ftp.prefer") is not None
