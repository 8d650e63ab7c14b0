"""Human-readable trace rendering: EXPLAIN ANALYZE-style output.

Two views over one span tree:

* :func:`render_trace` — the hierarchical per-operator breakdown, one line
  per span with its plan label, row counts, score-relation sizes, aggregate
  applications and inclusive wall time (the tree mirrors the executed plan,
  since strategies open one span per operator).
* :func:`render_profile` — a flat table aggregated by operator kind:
  calls, total wall/CPU time, total rows — the ``--profile`` view.
"""

from __future__ import annotations

from .tracer import Span

#: Counters promoted into the per-span annotation, in display order.
_SHOWN_COUNTERS = (
    "rows_in",
    "rows_out",
    "scores",
    "aggregate.combine",
)


def _describe(span: Span) -> str:
    head = span.name if not span.label else f"{span.name} {span.label}"
    parts = []
    for counter in _SHOWN_COUNTERS:
        if counter in span.counters:
            parts.append(f"{counter}={span.counters[counter]}")
    for counter in sorted(span.counters):
        if counter not in _SHOWN_COUNTERS:
            parts.append(f"{counter}={span.counters[counter]}")
    for key in sorted(span.attrs):
        parts.append(f"{key}={span.attrs[key]}")
    annotation = f" ({', '.join(parts)})" if parts else ""
    return f"{head}{annotation}  [{span.wall_time * 1e3:.3f} ms]"


def render_trace(root: Span) -> str:
    """Render the span tree in the plan printer's indentation style."""
    lines: list[str] = []
    _render(root, prefix="", is_last=True, is_root=True, lines=lines)
    return "\n".join(lines)


def _render(
    span: Span, prefix: str, is_last: bool, is_root: bool, lines: list[str]
) -> None:
    if is_root:
        lines.append(_describe(span))
        child_prefix = ""
    else:
        connector = "└─ " if is_last else "├─ "
        lines.append(prefix + connector + _describe(span))
        child_prefix = prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(span.children):
        _render(child, child_prefix, index == len(span.children) - 1, False, lines)


def profile(root: Span) -> dict[str, dict[str, float]]:
    """Aggregate the tree by span name: calls, wall/CPU ms, rows out.

    Wall times are *inclusive* (a parent covers its children), so the
    per-name totals overlap across tree levels; within one name they are
    comparable and that is how the table should be read.
    """
    out: dict[str, dict[str, float]] = {}
    for span in root.walk():
        cell = out.setdefault(
            span.name, {"calls": 0, "wall_ms": 0.0, "cpu_ms": 0.0, "rows_out": 0}
        )
        cell["calls"] += 1
        cell["wall_ms"] += span.wall_time * 1e3
        cell["cpu_ms"] += span.cpu_time * 1e3
        cell["rows_out"] += span.counters.get("rows_out", 0)
    return out


def render_profile(root: Span) -> str:
    """The :func:`profile` aggregation as an aligned text table."""
    cells = profile(root)
    headers = ["operator", "calls", "wall_ms", "cpu_ms", "rows_out"]
    body: list[list[str]] = []
    for name in sorted(cells, key=lambda n: -cells[n]["wall_ms"]):
        cell = cells[name]
        body.append(
            [
                name,
                str(int(cell["calls"])),
                f"{cell['wall_ms']:.3f}",
                f"{cell['cpu_ms']:.3f}",
                str(int(cell["rows_out"])),
            ]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)
