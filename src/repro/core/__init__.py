"""The paper's core contribution: preference model, p-relations, algebra.

* :class:`Preference` — the ``(σ_φ, S, C)`` triple of Definition 1.
* :class:`PRelation` — Definition 2.
* :mod:`~repro.core.aggregates` — aggregate functions ``F`` (Definition 3).
* :mod:`~repro.core.algebra` — the extended relational operators.
* :func:`prefer` — the ``λ_{p,F}`` operator.
"""

from .aggregates import (
    F_MAX,
    F_MIN,
    F_S,
    AggregateFunction,
    MaxConfidence,
    MinConfidence,
    WeightedSum,
    check_laws,
    get_aggregate,
)
from .preference import Preference  # noqa: I001  (must precede .context: import cycle)
from .context import ContextualPreference, active_preferences
from .prefer import prefer
from .prelation import PRelation
from .scorepair import BOTTOM, IDENTITY, ScorePair, pair
from .scoring import (
    CallableScore,
    ConstantScore,
    ExprScore,
    ScoringFunction,
    around_score,
    rating_score,
    recency_score,
    weighted,
)

__all__ = [
    "Preference",
    "ContextualPreference",
    "active_preferences",
    "PRelation",
    "ScorePair",
    "pair",
    "BOTTOM",
    "IDENTITY",
    "prefer",
    "AggregateFunction",
    "WeightedSum",
    "MaxConfidence",
    "MinConfidence",
    "F_S",
    "F_MAX",
    "F_MIN",
    "get_aggregate",
    "check_laws",
    "ScoringFunction",
    "ConstantScore",
    "ExprScore",
    "CallableScore",
    "rating_score",
    "recency_score",
    "around_score",
    "weighted",
]
