"""Table and column statistics plus selectivity estimation.

Both the native optimizer (join ordering, access-path choice) and the
preference-aware optimizer (Heuristic 5: order prefer runs by ascending
conditional selectivity) need cardinality estimates.  We keep the classic
toolkit: row counts, per-column distinct counts, min/max, an equi-width
histogram for numeric columns and a most-common-values list for skewed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .expressions import (
    And,
    Attr,
    Between,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from .schema import TableSchema
from .table import Table

#: Fallback selectivity for predicates we cannot estimate (System R's 1/3).
DEFAULT_SELECTIVITY = 1.0 / 3.0
HISTOGRAM_BUCKETS = 24
MCV_COUNT = 10


@dataclass
class Histogram:
    """Equi-width histogram over a numeric column."""

    low: float
    high: float
    counts: list[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of values ``< value`` (or ``<=`` if inclusive)."""
        if self.total == 0 or self.high <= self.low:
            return DEFAULT_SELECTIVITY
        if value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        width = (self.high - self.low) / len(self.counts)
        position = (value - self.low) / width
        bucket = min(int(position), len(self.counts) - 1)
        within = position - bucket
        if inclusive:
            within = min(1.0, within + 1e-9)
        below = sum(self.counts[:bucket]) + self.counts[bucket] * within
        return below / self.total


@dataclass
class ColumnStats:
    """Statistics for one column."""

    n_rows: int
    n_nulls: int
    n_distinct: int
    min_value: Any = None
    max_value: Any = None
    histogram: Histogram | None = None
    mcv: dict[Any, float] = field(default_factory=dict)

    @property
    def null_fraction(self) -> float:
        return self.n_nulls / self.n_rows if self.n_rows else 0.0

    def eq_selectivity(self, value: Any) -> float:
        if value is None:
            return 0.0  # NULL never compares equal under our semantics
        if value in self.mcv:
            return self.mcv[value]
        if self.n_distinct <= 0:
            return DEFAULT_SELECTIVITY
        remaining_fraction = max(0.0, 1.0 - self.null_fraction - sum(self.mcv.values()))
        remaining_distinct = max(1, self.n_distinct - len(self.mcv))
        return remaining_fraction / remaining_distinct

    def range_selectivity(self, op: str, value: Any) -> float:
        if value is None:
            return 0.0
        if self.histogram is not None and isinstance(value, (int, float)):
            if op == "<":
                return self.histogram.fraction_below(value, inclusive=False)
            if op == "<=":
                return self.histogram.fraction_below(value, inclusive=True)
            if op == ">":
                return 1.0 - self.histogram.fraction_below(value, inclusive=True)
            if op == ">=":
                return 1.0 - self.histogram.fraction_below(value, inclusive=False)
        return DEFAULT_SELECTIVITY


@dataclass
class TableStats:
    """Statistics for one table."""

    n_rows: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def analyze_table(table: Table) -> TableStats:
    """Compute :class:`TableStats` by a full scan of *table*."""
    stats = TableStats(n_rows=len(table))
    for position, column in enumerate(table.schema.columns):
        values = [row[position] for row in table.rows]
        stats.columns[column.name.lower()] = _analyze_column(values, column.dtype.is_numeric)
    return stats


def _analyze_column(values: Sequence[Any], numeric: bool) -> ColumnStats:
    n_rows = len(values)
    non_null = [v for v in values if v is not None]
    n_nulls = n_rows - len(non_null)
    counts: dict[Any, int] = {}
    for value in non_null:
        counts[value] = counts.get(value, 0) + 1
    n_distinct = len(counts)
    stats = ColumnStats(n_rows=n_rows, n_nulls=n_nulls, n_distinct=n_distinct)
    if not non_null:
        return stats
    stats.min_value = min(non_null)
    stats.max_value = max(non_null)
    common = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:MCV_COUNT]
    # Only keep MCVs that are genuinely frequent; uniform columns do better
    # with the 1/n_distinct rule alone.
    stats.mcv = {
        value: count / n_rows for value, count in common if count / n_rows >= 2.0 / max(n_rows, 1)
    }
    if numeric and n_distinct > 1:
        low = float(stats.min_value)
        high = float(stats.max_value)
        bucket_counts = [0] * HISTOGRAM_BUCKETS
        width = (high - low) / HISTOGRAM_BUCKETS
        if width > 0:
            for value in non_null:
                bucket = min(int((float(value) - low) / width), HISTOGRAM_BUCKETS - 1)
                bucket_counts[bucket] += 1
            stats.histogram = Histogram(low=low, high=high, counts=bucket_counts)
    return stats


# ---------------------------------------------------------------------------
# Selectivity estimation over expression trees
# ---------------------------------------------------------------------------


def estimate_selectivity(expr: Expr, schema: TableSchema, stats: TableStats | None) -> float:
    """Estimated fraction of rows of *schema* satisfying *expr* (in [0, 1])."""
    return _Estimator(schema, stats).estimate(expr)


class _Estimator:
    def __init__(self, schema: TableSchema, stats: TableStats | None):
        self.schema = schema
        self.stats = stats

    def estimate(self, expr: Expr) -> float:
        if isinstance(expr, Literal):
            return 1.0 if expr.value else 0.0
        if isinstance(expr, And):
            out = 1.0
            for operand in expr.operands:
                out *= self.estimate(operand)
            return out
        if isinstance(expr, Or):
            out = 0.0
            for operand in expr.operands:
                s = self.estimate(operand)
                out = out + s - out * s  # independence assumption
            return out
        if isinstance(expr, Not):
            return max(0.0, 1.0 - self.estimate(expr.operand))
        if isinstance(expr, Comparison):
            return self._comparison(expr)
        if isinstance(expr, InList):
            return self._in_list(expr)
        if isinstance(expr, Between):
            return self._between(expr)
        if isinstance(expr, IsNull):
            return self._is_null(expr)
        return DEFAULT_SELECTIVITY

    def _column_stats(self, expr: Expr) -> ColumnStats | None:
        if not isinstance(expr, Attr) or self.stats is None:
            return None
        if not self.schema.has(expr.name):
            return None
        column = self.schema.column(expr.name)
        return self.stats.column(column.name)

    def _comparison(self, expr: Comparison) -> float:
        attr, literal, op = _normalize_comparison(expr)
        if attr is None:
            return DEFAULT_SELECTIVITY
        stats = self._column_stats(attr)
        if stats is None:
            return DEFAULT_SELECTIVITY
        if op == "=":
            return stats.eq_selectivity(literal)
        if op == "!=":
            return max(0.0, 1.0 - stats.eq_selectivity(literal) - stats.null_fraction)
        return stats.range_selectivity(op, literal)

    def _in_list(self, expr: InList) -> float:
        stats = self._column_stats(expr.expr)
        if stats is None:
            return min(1.0, DEFAULT_SELECTIVITY * len(expr.values))
        return min(1.0, sum(stats.eq_selectivity(v) for v in expr.values))

    def _between(self, expr: Between) -> float:
        stats = self._column_stats(expr.expr)
        if stats is None:
            return DEFAULT_SELECTIVITY
        upper = stats.range_selectivity("<=", expr.high)
        lower = stats.range_selectivity("<", expr.low)
        return max(0.0, upper - lower)

    def _is_null(self, expr: IsNull) -> float:
        stats = self._column_stats(expr.expr)
        if stats is None:
            return DEFAULT_SELECTIVITY
        fraction = stats.null_fraction
        return (1.0 - fraction) if expr.negated else fraction


_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _normalize_comparison(expr: Comparison) -> tuple[Attr | None, Any, str]:
    """Rewrite to (attribute, constant, op) form when possible."""
    left, right = expr.left, expr.right
    if isinstance(left, Attr) and isinstance(right, Literal):
        return left, right.value, expr.op
    if isinstance(left, Literal) and isinstance(right, Attr):
        return right, left.value, _MIRRORED[expr.op]
    return None, None, expr.op
