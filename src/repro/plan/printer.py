"""EXPLAIN-style pretty printing of extended query plans."""

from __future__ import annotations

from .nodes import PlanNode


def explain(plan: PlanNode) -> str:
    """Render *plan* as an indented operator tree, root first.  A prefer
    run prints as one ``λ[p1, p2, …]`` line, its preferences in fold order.

    Example::

        top(10, score)
        └─ π[title]
           └─ ⋈[(movies.d_id = directors.d_id)]
              ├─ σ[(movies.year = 2011)]
              │  └─ MOVIES
              └─ λ[p2]
                 └─ DIRECTORS
    """
    lines: list[str] = []
    _render(plan, prefix="", is_last=True, is_root=True, lines=lines)
    return "\n".join(lines)


def _render(
    node: PlanNode, prefix: str, is_last: bool, is_root: bool, lines: list[str]
) -> None:
    if is_root:
        lines.append(node.label())
        child_prefix = ""
    else:
        connector = "└─ " if is_last else "├─ "
        lines.append(prefix + connector + node.label())
        child_prefix = prefix + ("   " if is_last else "│  ")
    children = node.children()
    for index, child in enumerate(children):
        _render(child, child_prefix, index == len(children) - 1, False, lines)


def compact(plan: PlanNode) -> str:
    """One-line functional rendering, useful in assertion messages."""
    children = plan.children()
    if not children:
        return plan.label()
    inner = ", ".join(compact(child) for child in children)
    return f"{plan.label()}({inner})"


def explain_analyze(plan: PlanNode, trace) -> str:
    """EXPLAIN ANALYZE: the executed plan plus its per-operator trace.

    *trace* is the root :class:`repro.obs.Span` of a query run under a
    collecting tracer (``QueryResult.stats.trace``).  Each trace line
    carries the operator's plan label, row counts, score-relation sizes,
    aggregate applications and inclusive wall time.
    """
    from ..obs.render import render_trace

    rendered = "executed plan:\n" + explain(plan)
    if trace is None:
        return rendered + "\n\n(no trace recorded: run under a collecting tracer)"
    return rendered + "\n\nexecution trace:\n" + render_trace(trace)
