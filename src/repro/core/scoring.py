"""Scoring functions — the ``S`` part of a preference (Definition 1).

A scoring function maps the attribute values of a tuple to a score in
``[0, 1] ∪ {⊥}``.  Like engine expressions, scoring functions are compiled
once against a schema into a row closure, so evaluating a preference over a
relation costs no per-row name resolution.

The paper's running examples (Section III) are provided as constructors:

* ``S_r(rating) = 0.1 · rating``                      → :func:`rating_score`
* ``S_m(year, x) = year / x``                         → :func:`recency_score`
* ``S_d(duration, x) = 1 − |duration − x| / x``       → :func:`around_score`
* ``0.5·S_m + 0.5·S_d`` (multi-attribute, pref. p5)   → :func:`weighted`

Arbitrary arithmetic over attributes is available through :class:`ExprScore`
and arbitrary Python callables through :class:`CallableScore`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..engine.expressions import Arithmetic, Attr, Expr, Func, Literal
from ..engine.schema import TableSchema
from ..errors import PreferenceError

Row = tuple
ScoreFn = Callable[[Row], float | None]


def _clamp_unit(value: Any) -> float | None:
    """Force a raw scoring result into ``[0, 1] ∪ {⊥}``; NaN scores ⊥."""
    if value is None or value != value:
        return None
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return float(value)


class ScoringFunction:
    """Base class for the scoring part ``S`` of a preference."""

    def compile(self, schema: TableSchema) -> ScoreFn:
        """Return a closure mapping a row of *schema* to a score (or ⊥)."""
        raise NotImplementedError

    def attributes(self) -> set[str]:
        """Attribute names (``A_s``) the function reads; empty for constants."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def map_attributes(self, fn) -> "ScoringFunction":
        """Rebuild with attribute names passed through *fn* (qualification)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"S[{self.describe()}]"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoringFunction):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError


class ConstantScore(ScoringFunction):
    """Assign the same score to every affected tuple (e.g. preference p3)."""

    def __init__(self, value: float):
        if not 0.0 <= value <= 1.0:
            raise PreferenceError(f"a preference score must lie in [0, 1], got {value}")
        self.value = float(value)

    def compile(self, schema: TableSchema) -> ScoreFn:
        value = self.value
        return lambda row: value

    def attributes(self) -> set[str]:
        return set()

    def map_attributes(self, fn) -> "ScoringFunction":
        return self

    def describe(self) -> str:
        return f"{self.value:g}"

    def _key(self) -> tuple:
        return (self.value,)


class ExprScore(ScoringFunction):
    """Score computed by an arithmetic expression, clamped into [0, 1].

    A ``None`` result (NULL attribute or division by zero) or a NaN one
    becomes ⊥.
    """

    def __init__(self, expr: Expr, label: str | None = None):
        self.expr = expr
        self.label = label

    def compile(self, schema: TableSchema) -> ScoreFn:
        fn = self.expr.compile(schema)
        return lambda row: _clamp_unit(fn(row))

    def attributes(self) -> set[str]:
        return self.expr.attributes()

    def map_attributes(self, fn) -> "ScoringFunction":
        from ..engine.expressions import map_attributes

        return ExprScore(map_attributes(self.expr, fn), self.label)

    def describe(self) -> str:
        return self.label or repr(self.expr)

    def _key(self) -> tuple:
        return (self.expr,)


class CallableScore(ScoringFunction):
    """Score computed by an arbitrary Python callable over named attributes.

    The callable receives the attribute values positionally, in the declared
    order; results are clamped into [0, 1], ``None`` and NaN become ⊥.  Declared
    attributes make the function transparent to the optimizer (Property 4.4
    needs to know which relation owns them) and to the query parser (which
    must project them).
    """

    def __init__(self, fn: Callable[..., float | None], attrs: Sequence[str], label: str | None = None):
        if not attrs:
            raise PreferenceError("CallableScore requires at least one attribute")
        self.fn = fn
        self.attrs = tuple(attrs)
        self.label = label or getattr(fn, "__name__", "callable")

    def compile(self, schema: TableSchema) -> ScoreFn:
        positions = [schema.index_of(a) for a in self.attrs]
        fn = self.fn
        if len(positions) == 1:
            position = positions[0]
            return lambda row: _clamp_unit(fn(row[position]))
        return lambda row: _clamp_unit(fn(*(row[i] for i in positions)))

    def attributes(self) -> set[str]:
        return {a.lower() for a in self.attrs}

    def map_attributes(self, fn) -> "ScoringFunction":
        return CallableScore(self.fn, [fn(a) for a in self.attrs], self.label)

    def describe(self) -> str:
        return f"{self.label}({', '.join(self.attrs)})"

    def _key(self) -> tuple:
        return (self.fn, self.attrs)


# ---------------------------------------------------------------------------
# The paper's example scoring functions
# ---------------------------------------------------------------------------


def rating_score(attr: str = "rating") -> ScoringFunction:
    """``S_r(rating) = 0.1 · rating`` — higher-rated tuples score higher."""
    return ExprScore(
        Arithmetic("*", Literal(0.1), Attr(attr)),
        label=f"S_r({attr})",
    )


def recency_score(attr: str = "year", x: int = 2011) -> ScoringFunction:
    """``S_m(year, x) = year / x`` — more recent tuples score higher."""
    if x <= 0:
        raise PreferenceError("recency_score requires a positive reference year")
    return ExprScore(
        Arithmetic("/", Attr(attr), Literal(float(x))),
        label=f"S_m({attr},{x})",
    )


def around_score(attr: str = "duration", x: float = 120.0) -> ScoringFunction:
    """``S_d(v, x) = 1 − |v − x| / x`` — tuples near the target value x win."""
    if x <= 0:
        raise PreferenceError("around_score requires a positive target value")
    deviation = Func("abs", Arithmetic("-", Attr(attr), Literal(float(x))))
    return ExprScore(
        Arithmetic("-", Literal(1.0), Arithmetic("/", deviation, Literal(float(x)))),
        label=f"S_d({attr},{x:g})",
    )


def weighted(parts: Sequence[tuple[float, ScoringFunction]]) -> ScoringFunction:
    """Weighted combination of scoring functions, e.g. preference p5:
    ``0.5·S_m(year, 2011) + 0.5·S_d(duration, 120)``.

    Only :class:`ExprScore`/:class:`ConstantScore` parts can be combined
    symbolically; a part returning ⊥ makes the whole combination ⊥
    (NULL-propagation of the underlying arithmetic).
    """
    if not parts:
        raise PreferenceError("weighted() requires at least one component")
    terms: list[Expr] = []
    labels: list[str] = []
    for weight, part in parts:
        if isinstance(part, ConstantScore):
            expr: Expr = Literal(part.value)
        elif isinstance(part, ExprScore):
            expr = part.expr
        else:
            raise PreferenceError(
                "weighted() only combines expression-based scoring functions; "
                "wrap arbitrary callables in a single CallableScore instead"
            )
        terms.append(Arithmetic("*", Literal(float(weight)), expr))
        labels.append(f"{weight:g}·{part.describe()}")
    combined = terms[0]
    for term in terms[1:]:
        combined = Arithmetic("+", combined, term)
    return ExprScore(combined, label=" + ".join(labels))
