"""Score/confidence pairs ``⟨S, C⟩`` — the currency of the preference algebra.

The paper writes ``⟨S, C⟩`` for a score *S* with confidence *C*.  A score of
``⊥`` ("bottom") denotes lack of knowledge about how interesting a tuple is
and is the default; we represent it as Python ``None``.  The default
confidence is ``0``.  ``IDENTITY = ⟨⊥, 0⟩`` is the identity element every
aggregate function must respect (Definition 3).
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Representation of the unknown score ``⊥``.
BOTTOM = None


class ScorePair(NamedTuple):
    """An immutable ``⟨score, confidence⟩`` pair.

    ``score`` is ``None`` (⊥) or a float; a single preference assigns scores
    in ``[0, 1]``, but combined pairs may exceed 1 (paper, §IV-A).
    ``conf`` is a non-negative float; a single preference's confidence lies in
    ``[0, 1]`` but sums may exceed 1.
    """

    score: float | None
    conf: float

    @property
    def is_default(self) -> bool:
        """True for the identity ``⟨⊥, 0⟩``."""
        return self.score is None and self.conf == 0.0

    @property
    def is_bottom(self) -> bool:
        """True when the score is unknown (⊥)."""
        return self.score is None

    def approx_equal(self, other: "ScorePair", tolerance: float = 1e-9) -> bool:
        """Float-tolerant equality used throughout the test suite."""
        if (self.score is None) != (other.score is None):
            return False
        if self.score is not None and not math.isclose(
            self.score, other.score, rel_tol=tolerance, abs_tol=tolerance
        ):
            return False
        return math.isclose(self.conf, other.conf, rel_tol=tolerance, abs_tol=tolerance)

    def __repr__(self) -> str:
        score = "⊥" if self.score is None else f"{self.score:.4g}"
        return f"⟨{score},{self.conf:.4g}⟩"


#: ``⟨⊥, 0⟩`` — default pair of every tuple and identity element of every F.
IDENTITY = ScorePair(BOTTOM, 0.0)


def pair(score: float | None, conf: float) -> ScorePair:
    """Build a validated :class:`ScorePair`."""
    if conf < 0:
        raise ValueError(f"confidence must be non-negative, got {conf}")
    return ScorePair(score, float(conf))


def bottom(conf: float = 0.0) -> ScorePair:
    """A ⟨⊥, conf⟩ pair: an unknown score carrying *conf* worth of evidence."""
    if conf < 0:
        raise ValueError(f"confidence must be non-negative, got {conf}")
    return ScorePair(BOTTOM, float(conf))


def scores_close(a: float | None, b: float | None, tolerance: float = 1e-9) -> bool:
    """Float-tolerant score equality, ⊥-aware.

    Combined scores are weighted means, so exact ``==`` on them is fragile.
    ⊥ equals only ⊥.
    """
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=tolerance, abs_tol=tolerance)
