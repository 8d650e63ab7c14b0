"""Conforming p-relations to a target schema (column order normalization).

The native optimizer is free to re-order joins, which permutes result
columns; strategies must still return results in the logical plan's column
order so that set operations stay positional and results are comparable
across strategies and with the reference evaluator.
"""

from __future__ import annotations

from ..core.prelation import PRelation
from ..engine.schema import TableSchema
from ..engine.table import row_getter
from ..errors import ExecutionError


def conform(relation: PRelation, target: TableSchema) -> PRelation:
    """Re-order/select *relation*'s columns to match *target* (by name)."""
    source = relation.schema
    if source.attribute_names == target.attribute_names:
        return relation
    positions = []
    for column in target.columns:
        name = column.qualified_name
        if not source.has(name):
            # Fall back to the bare name (qualifiers may differ after rename).
            name = column.name
        if not source.has(name):
            raise ExecutionError(
                f"cannot conform result: attribute {column.qualified_name!r} "
                "is missing from the computed schema"
            )
        positions.append(source.index_of(name))
    rows = list(map(row_getter(positions), relation.rows))
    return PRelation(target, rows, list(relation.pairs))
