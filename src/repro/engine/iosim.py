"""Simulated storage costs.

The paper measures cold-cache query times on PostgreSQL and argues (§VI-A)
that the dominant cost driver is disk I/O, which in turn tracks the size of
intermediate relations.  Our engine is in-memory, so alongside wall-clock
time we keep an explicit :class:`CostModel` that counts simulated page reads,
page writes and tuples materialized.  Physical operators report to it; the
benchmark harness prints both wall time and these counters so the paper's
cost shapes can be verified independently of Python interpreter noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Number of tuples assumed to fit in one disk page.  The absolute value is
#: irrelevant for shapes; it only scales the reported page counts.
TUPLES_PER_PAGE = 64


def pages_for(tuples: int, tuples_per_page: int = TUPLES_PER_PAGE) -> int:
    """Number of pages needed to hold *tuples* rows (at least one if any)."""
    if tuples <= 0:
        return 0
    return -(-tuples // tuples_per_page)


@dataclass
class CostModel:
    """Mutable accumulator of simulated storage costs for one query run.

    The accountant doubles as the resilience layer's data-volume choke
    point: when the execution engine attaches a query guard
    (:mod:`repro.resilience`), every scanned/materialized tuple is charged
    against the guard's budget.  The hook defaults to ``None`` and costs
    one attribute check on the unguarded path.
    """

    pages_read: int = 0
    pages_written: int = 0
    tuples_scanned: int = 0
    tuples_materialized: int = 0
    index_lookups: int = 0
    operator_calls: dict[str, int] = field(default_factory=dict)
    #: Optional :class:`repro.resilience.QueryGuard` charged per tuple.
    guard: object = field(default=None, repr=False, compare=False)

    def scan(self, tuples: int) -> None:
        """Account for a sequential scan of *tuples* rows."""
        self.tuples_scanned += tuples
        self.pages_read += pages_for(tuples)
        if self.guard is not None:
            self.guard.note_tuples(tuples)

    def index_probe(self, matches: int) -> None:
        """Account for one index lookup returning *matches* rows."""
        self.index_probes(1, [matches])

    def index_probes(self, probes: int, matches: list[int]) -> None:
        """Account for *probes* index lookups at once; *matches* are their
        result sizes (empty results may be left out)."""
        self.index_lookups += probes
        # One page per index descent plus the data pages touched.
        self.pages_read += probes + sum(map(pages_for, matches))
        if self.guard is not None:
            self.guard.note_tuples(sum(matches))

    def materialize(self, tuples: int) -> None:
        """Account for writing an intermediate relation of *tuples* rows."""
        self.tuples_materialized += tuples
        self.pages_written += pages_for(tuples)
        if self.guard is not None:
            self.guard.note_tuples(tuples)

    def count_operator(self, name: str) -> None:
        self.operator_calls[name] = self.operator_calls.get(name, 0) + 1

    @property
    def total_io(self) -> int:
        return self.pages_read + self.pages_written

    def merge(self, other: "CostModel") -> None:
        """Fold *other*'s counters into this model (per-query → global)."""
        self.pages_read += other.pages_read
        self.pages_written += other.pages_written
        self.tuples_scanned += other.tuples_scanned
        self.tuples_materialized += other.tuples_materialized
        self.index_lookups += other.index_lookups
        for name, calls in other.operator_calls.items():
            self.operator_calls[name] = self.operator_calls.get(name, 0) + calls

    def reset(self) -> None:
        self.pages_read = 0
        self.pages_written = 0
        self.tuples_scanned = 0
        self.tuples_materialized = 0
        self.index_lookups = 0
        self.operator_calls = {}

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counters (for reports and assertions)."""
        return {
            "pages_read": self.pages_read,
            "pages_written": self.pages_written,
            "tuples_scanned": self.tuples_scanned,
            "tuples_materialized": self.tuples_materialized,
            "index_lookups": self.index_lookups,
            "total_io": self.total_io,
        }
