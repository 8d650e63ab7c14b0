"""Columnar execution core: per-attribute columns + selection vectors.

The row engine evaluates plans tuple-at-a-time over :class:`PRelation`
values.  This package provides a *columnar* evaluation mode for the same
plans: base tables are decomposed into per-attribute column lists (cached on
the owning :class:`~repro.engine.database.Database` and invalidated by its
mutation counter), selections are evaluated column-at-a-time into selection
vectors, joins hash over key columns, and runs of prefer operators are
folded in one fused pass through :class:`~repro.core.prefgroup.CompiledGroup`.

The mode is opt-in (``Session.execute(columnar=True)``) and *exact*: every
result is bit-identical to the reference row evaluator — the differential
conformance harness (``tests/conformance.py``) enforces equality of raw
``(row, score, conf)`` triples, not rounded ones.  Plan shapes the columnar
operators do not cover raise :exc:`~repro.errors.ColumnarUnsupported` and
the engine falls back to the requested row strategy.
"""

from .column import ColumnStore, ColumnarRelation, column_store_for
from .executor import evaluate_columnar
from .vectorized import selection_vector

__all__ = [
    "ColumnStore",
    "ColumnarRelation",
    "column_store_for",
    "evaluate_columnar",
    "selection_vector",
]
