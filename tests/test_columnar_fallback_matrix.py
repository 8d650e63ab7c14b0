"""Fallback matrix: every ColumnarUnsupported raise site falls back exactly.

The matrix is grep-driven: the test enumerates every ``raise
ColumnarUnsupported`` site in the source tree and requires a matrix entry
per site.  Adding a new raise site without extending the matrix fails
``test_matrix_covers_every_raise_site`` — the matrix cannot silently rot.

Each entry drives its site end-to-end through the engine and asserts the
contract from the columnar package doc: the capability miss is silent
(``stats.mode == "row"``, ``fallback="unsupported"`` on the
trace span) and the answer is byte-identical to the plain row run.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.core.aggregates import F_S
from repro.errors import ColumnarUnsupported
from repro.obs import Tracer
from repro.pexec.engine import ExecutionEngine
from repro.plan.nodes import PlanNode, Relation, Select, TopK
from repro.engine.expressions import Attr, Comparison, Literal

from .conformance import assert_identical

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

RAISE = re.compile(r"raise\s+ColumnarUnsupported")


def _raise_sites() -> set[str]:
    sites: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        if RAISE.search(path.read_text(encoding="utf-8")):
            sites.add(str(path.relative_to(SRC)).replace("\\", "/"))
    return sites


#: path (relative to src/repro) -> plan builder that trips that site.
class _Opaque(PlanNode):
    """A node type the columnar dispatcher has never heard of."""

    def __init__(self, child: PlanNode):
        self.child = child

    def children(self):
        return [self.child]

    def with_children(self, children):
        return _Opaque(children[0])

    def schema(self, catalog):
        return self.child.schema(catalog)

    def __repr__(self) -> str:
        return f"Opaque({self.child!r})"


def _unknown_node_plan() -> PlanNode:
    recent = Comparison(">=", Attr("MOVIES.year"), Literal(2005))
    return TopK(Select(_Opaque(Relation("MOVIES")), recent), 3, "score")


MATRIX = {
    "columnar/executor.py": _unknown_node_plan,
}


def test_matrix_covers_every_raise_site():
    sites = _raise_sites()
    assert sites == set(MATRIX), (
        "ColumnarUnsupported raise sites changed; extend MATRIX with a "
        f"fallback test per site (sites={sorted(sites)})"
    )


@pytest.mark.parametrize("site", sorted(MATRIX))
def test_site_raises_typed_error(site, movie_db):
    from repro.columnar import evaluate_columnar

    plan = MATRIX[site]()
    with pytest.raises(ColumnarUnsupported):
        evaluate_columnar(plan, movie_db, F_S)


@pytest.mark.parametrize("site", sorted(MATRIX))
def test_site_falls_back_byte_identical(site, movie_db, monkeypatch):
    # The trigger plan is by construction unknown to EVERY evaluator, so
    # the end-to-end leg routes the engine's columnar attempt through the
    # genuine raise site: the engine's columnar call evaluates the trigger
    # plan (raising the real typed error from the real site), and the
    # engine must fall back to the row answer for the actual query —
    # silently, and byte-identical.
    import repro.pexec.engine as engine_module
    from repro.columnar import evaluate_columnar as real_evaluate

    trigger = MATRIX[site]()

    def tripping(plan, db, aggregate=F_S, **kwargs):
        return real_evaluate(trigger, db, aggregate, pushdown=False)

    monkeypatch.setattr(engine_module, "evaluate_columnar", tripping)
    engine = ExecutionEngine(movie_db, F_S)
    recent = Comparison(">=", Attr("MOVIES.year"), Literal(2005))
    plan = TopK(Select(Relation("MOVIES"), recent), 3, "score")
    row = engine.run(plan, "reference")
    tracer = Tracer()
    columnar = engine.run(plan, "reference", columnar=True, tracer=tracer)
    assert columnar.stats.mode == "row"
    span = tracer.root.find("engine.columnar")
    assert span is not None and span.attrs.get("fallback") == "unsupported"
    assert_identical(row, columnar, labels=("row", "fallback"))
