"""In-memory spans for the traced pass, written out when the run ends.

The benchmark wraps every call it makes into a layer of the program in a
span (name, start, end, parent, request id).  Nothing here is imported by
the program: spans inside the program are a later change, and the
engine-internal split reuses the span tree ``Session.execute(tracer=...)``
already returns.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """Collects spans; parents come from the ``with`` nesting."""

    def __init__(self, now=time.perf_counter) -> None:
        self._now = now
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Time the enclosed block as one span; yields the span record."""
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "request": request,
            "start": self._now(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self._now()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds each span spent outside its direct children, by span id."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return {key: max(0.0, value) for key, value in own.items()}


def engine_self_ms(tree: dict, totals: dict[str, float] | None = None) -> dict[str, float]:
    """Self time in ms per span name over a program span tree
    (``repro.obs.Span.to_dict()``).

    The native engine's operators are pipelined, so a child's inclusive
    time can exceed its parent's; self time is clamped at zero.
    """
    totals = {} if totals is None else totals
    children = tree.get("children", ())
    own = tree["wall_ms"] - sum(child["wall_ms"] for child in children)
    totals[tree["name"]] = totals.get(tree["name"], 0.0) + max(0.0, own)
    for child in children:
        engine_self_ms(child, totals)
    return totals
