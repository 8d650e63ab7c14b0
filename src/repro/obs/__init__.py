"""Execution observability: tracing, metrics sinks and trace rendering.

The substrate every performance claim in this repo is measured against:
strategies, the native engine and the optimizer all report spans and
counters into the ambient tracer (a no-op by default), and the sinks and
renderers here turn collected traces into JSONL artifacts and
EXPLAIN ANALYZE-style breakdowns.  See ``docs/OBSERVABILITY.md``.
"""

from .render import profile, render_profile, render_trace
from .sinks import InMemorySink, JsonlSink, read_jsonl
from .tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    traced_rows,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "current_tracer",
    "use_tracer",
    "traced_rows",
    "InMemorySink",
    "JsonlSink",
    "read_jsonl",
    "render_trace",
    "render_profile",
    "profile",
]
