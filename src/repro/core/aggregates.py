"""Aggregate functions ``F : ⟨S,C⟩ × ⟨S,C⟩ → ⟨S,C⟩`` (Definition 3).

An aggregate function combines two score/confidence pairs into one.  The
paper requires every F to be **associative** and **commutative** and to have
``⟨⊥, 0⟩`` as **identity** — these laws are what make the prefer operator
commutative (Property 4.3) and allow it to be pushed through binary operators
(Property 4.4).  :func:`check_laws` verifies them empirically and backs the
property-based tests.

Built-in instances:

* :class:`WeightedSum` — the paper's ``F_S``: the new score is the
  confidence-weighted combination of the non-⊥ input scores
  (``Σ C_k·S_k / Σ C_k``) and the new confidence is the **sum** of input
  confidences (``Σ C_k``).  Summed confidences may exceed 1, which the paper
  notes explicitly; the sum "captures how many preferences have been
  satisfied" while the weighted score keeps low-confidence evidence from
  dominating.  Note the score must be the *normalized* weighted combination:
  the unnormalized ``Σ C_k·S_k`` would not be associative, contradicting the
  paper's stated requirement, so F_S here carries the weighted mean.
* :class:`MaxConfidence` — the paper's ``F_max``: the pair with the highest
  confidence wins (deterministic tie-break on score keeps it commutative).
* :class:`MinConfidence` — pessimistic dual of ``F_max``.

Zero-confidence corner: a known score with confidence 0 carries no evidence.
To keep the laws exact, F_S treats such pairs as dominated by any pair with
positive confidence; among themselves the larger score survives.  Both rules
are symmetric and associative.

Bottom corner: a ⟨⊥, c⟩ pair (a matched preference whose scoring function
abstained) carries evidence but no score.  Two bottoms combine into one
bottom pair — F_S sums their confidences, F_max/F_min keep the larger (the
identity law forces a rule where ⟨⊥, 0⟩ is absorbed) — while a bottom next
to a known score is dropped entirely: folding its confidence into the known
pair would break associativity of the weighted mean.

Registration: every aggregate enters the name registry through
:func:`register_aggregate`, which first law-checks the instance over a
deterministic sample pool (lint rule LN105 re-checks the live registry).
"""

from __future__ import annotations

from typing import Iterable

from ..errors import PreferenceError
from .scorepair import IDENTITY, ScorePair, bottom, pair


class AggregateFunction:
    """Base class for aggregate functions over score/confidence pairs."""

    #: Short name used in plan printouts and benchmark reports.
    name = "abstract"

    def combine(self, a: ScorePair, b: ScorePair) -> ScorePair:
        raise NotImplementedError

    def fold(
        self, previous: "ScorePair | None", pairs: Iterable[ScorePair]
    ) -> "tuple[ScorePair | None, int]":
        """Left fold of :meth:`combine` over *pairs*, starting from *previous*.

        ``None`` stands for "no pair yet": the first pair is taken as is,
        and a pair that collapses to the default ``⟨⊥,0⟩`` is dropped, so
        the fold may end at ``None``.  This is the prefer UDF's per-key
        update (§VI).  Returns the final pair and the number of
        :meth:`combine` applications made.
        """
        combine = self.combine
        combines = 0
        for fresh in pairs:
            if previous is None:
                combined = fresh
            else:
                combined = combine(previous, fresh)
                combines += 1
            previous = None if combined.is_default else combined
        return previous, combines

    def __repr__(self) -> str:
        return f"F[{self.name}]"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class WeightedSum(AggregateFunction):
    """``F_S``: ⟨Σ C_k·S_k / Σ C_k, Σ C_k⟩ over inputs with S_k ≠ ⊥."""

    name = "F_S"

    def combine(self, a: ScorePair, b: ScorePair) -> ScorePair:
        if a.is_bottom and b.is_bottom:
            # Evidence without scores accumulates: ⟨⊥,c1⟩ + ⟨⊥,c2⟩ = ⟨⊥,c1+c2⟩
            # (returning IDENTITY here would violate the identity law for
            # ⟨⊥, c>0⟩ inputs — confidence must survive the fold).
            return bottom(a.conf + b.conf)
        if a.is_bottom:
            return b
        if b.is_bottom:
            return a
        total_conf = a.conf + b.conf
        if total_conf == 0.0:
            # No evidence on either side: keep the larger score (associative).
            return ScorePair(max(a.score, b.score), 0.0)
        if a.conf == 0.0:
            return b
        if b.conf == 0.0:
            return a
        score = (a.conf * a.score + b.conf * b.score) / total_conf
        return ScorePair(score, total_conf)

    def __init_subclass__(cls, **kwargs) -> None:
        # The kernel below replays *this* combine; a subclass that redefines
        # combine folds through it with the generic loop instead.
        super().__init_subclass__(**kwargs)
        if cls.combine is not WeightedSum.combine and "fold" not in vars(cls):
            cls.fold = AggregateFunction.fold

    def fold(
        self, previous: "ScorePair | None", pairs: Iterable[ScorePair]
    ) -> "tuple[ScorePair | None, int]":
        """:meth:`AggregateFunction.fold` with :meth:`combine` inlined.

        The same float operations in the same order, so the same bits, but
        the running pair lives in two locals: ``held`` is the pair object
        equal to them when there is one (an input returned as is, or a ⊥
        built through :func:`bottom`), and a weighted result becomes a
        :class:`ScorePair` once, when the fold ends.
        """
        empty = previous is None
        if not empty:
            score, conf = previous
        held = previous
        combines = 0
        for fresh in pairs:
            fscore, fconf = fresh
            if empty:
                if fscore is None and fconf == 0.0:
                    continue  # the default is dropped
                score, conf, held, empty = fscore, fconf, fresh, False
                continue
            combines += 1
            if score is None:
                if fscore is None:
                    held = bottom(conf + fconf)
                    conf = held.conf
                    if conf == 0.0:
                        empty, held = True, None
                else:
                    score, conf, held = fscore, fconf, fresh
            elif fscore is not None:
                total = conf + fconf
                if total == 0.0:
                    score, conf, held = max(score, fscore), 0.0, None
                elif conf == 0.0:
                    score, conf, held = fscore, fconf, fresh
                elif fconf != 0.0:
                    score = (conf * score + fconf * fscore) / total
                    conf, held = total, None
        if empty:
            return None, combines
        if held is None:
            held = ScorePair(score, conf)
        return held, combines


class MaxConfidence(AggregateFunction):
    """``F_max``: the input pair with the maximum confidence (Example 5).

    Ties on confidence are broken by the larger score so the function stays
    commutative (the paper's argmax leaves ties unspecified; any symmetric
    rule works).
    """

    name = "F_max"

    def combine(self, a: ScorePair, b: ScorePair) -> ScorePair:
        if a.is_bottom and b.is_bottom:
            return bottom(max(a.conf, b.conf))
        if a.is_bottom:
            return b
        if b.is_bottom:
            return a
        if (a.conf, a.score) >= (b.conf, b.score):
            return a
        return b


class MinConfidence(AggregateFunction):
    """Dual of ``F_max``: keep the least-confident known pair."""

    name = "F_min"

    def combine(self, a: ScorePair, b: ScorePair) -> ScorePair:
        if a.is_bottom and b.is_bottom:
            # max, not min: the identity law needs ⟨⊥, 0⟩ absorbed, not kept.
            return bottom(max(a.conf, b.conf))
        if a.is_bottom:
            return b
        if b.is_bottom:
            return a
        if (a.conf, -(a.score or 0.0)) <= (b.conf, -(b.score or 0.0)):
            return a
        return b


#: Name → instance registry; populate it only through
#: :func:`register_aggregate`.
_REGISTRY: dict[str, AggregateFunction] = {}


def register_aggregate(
    fn: AggregateFunction, *aliases: str, check: bool = True
) -> AggregateFunction:
    """Register *fn* under its name plus *aliases*, law-checking it first.

    Raises :class:`~repro.errors.PreferenceError` when the instance violates
    Definition 3 (associativity, commutativity, identity ``⟨⊥,0⟩``) over the
    deterministic sample pool.  Returns *fn* so built-ins can be registered
    at definition site.  ``check=False`` skips the laws — only for tests
    that need a deliberately broken instance in the registry.
    """
    if check:
        failures = failed_laws(fn)
        if failures:
            raise PreferenceError(
                f"aggregate {fn.name!r} violates Definition 3: "
                + "; ".join(failures)
            )
    for key in (fn.name, *aliases):
        _REGISTRY[key.lower()] = fn
    return fn


def get_aggregate(name: str) -> AggregateFunction:
    """Look up a registered aggregate function by name (``F_S``, ``max``...)."""
    fn = _REGISTRY.get(name.lower())
    if fn is None:
        raise PreferenceError(f"unknown aggregate function {name!r}")
    return fn


def registered_aggregates() -> dict[str, AggregateFunction]:
    """A copy of the name → instance registry (for introspection/lint)."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# Law checking (Definition 3 requirements)
# ---------------------------------------------------------------------------


def check_identity(fn: AggregateFunction, sample: ScorePair, tolerance: float = 1e-9) -> bool:
    """``F(⟨⊥,0⟩, x) = x`` and ``F(x, ⟨⊥,0⟩) = x``."""
    return fn.combine(IDENTITY, sample).approx_equal(sample, tolerance) and fn.combine(
        sample, IDENTITY
    ).approx_equal(sample, tolerance)


def check_commutative(
    fn: AggregateFunction, a: ScorePair, b: ScorePair, tolerance: float = 1e-9
) -> bool:
    return fn.combine(a, b).approx_equal(fn.combine(b, a), tolerance)


def check_associative(
    fn: AggregateFunction,
    a: ScorePair,
    b: ScorePair,
    c: ScorePair,
    tolerance: float = 1e-6,
) -> bool:
    left = fn.combine(fn.combine(a, b), c)
    right = fn.combine(a, fn.combine(b, c))
    return left.approx_equal(right, tolerance)


def check_laws(
    fn: AggregateFunction, samples: Iterable[ScorePair], tolerance: float = 1e-6
) -> bool:
    """Check identity/commutativity/associativity over all sample triples."""
    pool = list(samples)
    for a in pool:
        if not check_identity(fn, a, tolerance):
            return False
        for b in pool:
            if not check_commutative(fn, a, b, tolerance):
                return False
            for c in pool:
                if not check_associative(fn, a, b, c, tolerance):
                    return False
    return True


#: Deterministic sample pool for registration-time law checking.  Covers the
#: identity, a bottom pair carrying evidence (the F_S regression: its
#: confidence must survive F(⟨⊥,0⟩, ·)), zero-confidence known scores, plain
#: pairs, and an out-of-[0,1] confidence from summed combinations.
LAW_SAMPLES: tuple[ScorePair, ...] = (
    IDENTITY,
    bottom(0.5),
    pair(0.0, 0.0),
    pair(1.0, 0.0),
    pair(0.25, 0.5),
    pair(0.5, 1.0),
    pair(1.0, 1.0),
    pair(0.75, 0.3),
    pair(0.4, 2.5),
)


def failed_laws(
    fn: AggregateFunction,
    samples: Iterable[ScorePair] = LAW_SAMPLES,
    tolerance: float = 1e-6,
) -> list[str]:
    """Names of the Definition 3 laws *fn* violates, with one witness each."""
    pool = list(samples)
    failures: list[str] = []
    for a in pool:
        if not check_identity(fn, a, tolerance):
            failures.append(f"identity: F(⟨⊥,0⟩, {a!r}) ≠ {a!r}")
            break
    done = False
    for a in pool:
        for b in pool:
            if not check_commutative(fn, a, b, tolerance):
                failures.append(f"commutativity: F({a!r}, {b!r}) ≠ F({b!r}, {a!r})")
                done = True
                break
        if done:
            break
    done = False
    for a in pool:
        for b in pool:
            for c in pool:
                if not check_associative(fn, a, b, c, tolerance):
                    failures.append(
                        f"associativity: F(F({a!r}, {b!r}), {c!r}) ≠ "
                        f"F({a!r}, F({b!r}, {c!r}))"
                    )
                    done = True
                    break
            if done:
                break
        if done:
            break
    return failures


def verify_registered_aggregates() -> list[str]:
    """Law failures of every instance in the live registry (lint rule LN105)."""
    out: list[str] = []
    checked: list[AggregateFunction] = []
    for fn in _REGISTRY.values():
        if any(fn is seen for seen in checked):
            continue
        checked.append(fn)
        for failure in failed_laws(fn):
            out.append(f"registered aggregate {fn.name!r} ({type(fn).__name__}): {failure}")
    return out


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

#: Default aggregate function, as assumed by the paper "for the sake of
#: simplicity (and without loss of generality)".
F_S = register_aggregate(WeightedSum(), "sum", "weighted")
F_MAX = register_aggregate(MaxConfidence(), "max")
F_MIN = register_aggregate(MinConfidence(), "min")
