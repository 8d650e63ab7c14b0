"""p-relations (Definition 2).

:class:`PRelation` is the *value-level* view: every row carries its
``⟨score, conf⟩`` pair explicitly (parallel arrays beside the row list).
This is the representation of Definition 2 and what the reference
evaluator and the extended algebra operate on.  The execution strategies'
physical view, the paper's sparse side table ``R_P(pk, score, conf)``, is
:class:`repro.pexec.scorerel.Intermediate`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..engine.schema import TableSchema
from ..engine.table import Row, Table
from ..errors import ExecutionError
from .scorepair import IDENTITY, ScorePair


class PRelation:
    """A relation whose tuples carry explicit score/confidence pairs."""

    __slots__ = ("schema", "rows", "pairs")

    def __init__(
        self,
        schema: TableSchema,
        rows: Sequence[Row] = (),
        pairs: Sequence[ScorePair] | None = None,
    ):
        self.schema = schema
        self.rows: list[Row] = list(rows)
        if pairs is None:
            self.pairs: list[ScorePair] = [IDENTITY] * len(self.rows)
        else:
            if len(pairs) != len(self.rows):
                raise ExecutionError(
                    f"PRelation needs one pair per row: {len(rows)} rows, {len(pairs)} pairs"
                )
            self.pairs = list(pairs)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_table(cls, table: Table) -> "PRelation":
        """Lift a base table: every tuple gets the default pair ⟨⊥, 0⟩."""
        return cls(table.schema, list(table.rows))

    @classmethod
    def from_triples(
        cls, schema: TableSchema, triples: Iterable[tuple[Row, float | None, float]]
    ) -> "PRelation":
        rows: list[Row] = []
        pairs: list[ScorePair] = []
        for row, score, conf in triples:
            rows.append(tuple(row))
            pairs.append(ScorePair(score, conf))
        return cls(schema, rows, pairs)

    # -- access -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Row, ScorePair]]:
        return zip(self.rows, self.pairs)

    def triples(self) -> Iterator[tuple[Row, float | None, float]]:
        """Iterate ``(row, score, conf)`` triples."""
        for row, p in zip(self.rows, self.pairs):
            yield row, p.score, p.conf

    def append(self, row: Row, pair: ScorePair) -> None:
        self.rows.append(row)
        self.pairs.append(pair)

    def scored_fraction(self) -> float:
        """Fraction of tuples carrying a non-default pair."""
        if not self.rows:
            return 0.0
        return sum(1 for p in self.pairs if not p.is_default) / len(self.rows)

    # -- ordering / presentation --------------------------------------------------

    def sorted_by(self, key: str = "score", descending: bool = True) -> "PRelation":
        """A copy ordered by ``score`` or ``conf``; ⊥ scores sort last."""
        if key not in ("score", "conf"):
            raise ExecutionError(f"sort key must be 'score' or 'conf', got {key!r}")

        def sort_key(item: tuple[Row, ScorePair]):
            _, p = item
            value = p.score if key == "score" else p.conf
            missing = value is None
            return (missing, -(value or 0.0) if descending else (value or 0.0))

        ordered = sorted(zip(self.rows, self.pairs), key=sort_key)
        return PRelation(self.schema, [r for r, _ in ordered], [p for _, p in ordered])

    def as_multiset(self, precision: int = 9) -> dict[tuple, int]:
        """Multiset of rounded ``(row, score, conf)`` triples, for comparisons."""
        out: dict[tuple, int] = {}
        for row, p in zip(self.rows, self.pairs):
            score = None if p.score is None else round(p.score, precision)
            key = (row, score, round(p.conf, precision))
            out[key] = out.get(key, 0) + 1
        return out

    def same_contents(self, other: "PRelation", precision: int = 9) -> bool:
        """Order-insensitive equality with float rounding — the oracle check."""
        return self.as_multiset(precision) == other.as_multiset(precision)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.schema.name or "<derived>"
        return f"PRelation({name}, {len(self.rows)} rows)"
