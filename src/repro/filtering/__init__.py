"""Filtering of preferred tuples — the phase *after* preference evaluation.

The paper's key separation: preference evaluation (the prefer operator)
never drops tuples; these functions decide which preferred tuples appear in
the answer — top-k by score or confidence, thresholds, full rankings,
not-dominated sets, or minimum-preferences-satisfied.
"""

from .ranking import ranked
from .skyline import skyline, skyline_pairs
from .threshold import (
    conf_at_least,
    filter_pairs,
    matched_any,
    satisfies_at_least,
    score_at_least,
)
from .topk import topk

__all__ = [
    "topk",
    "ranked",
    "skyline",
    "skyline_pairs",
    "filter_pairs",
    "score_at_least",
    "conf_at_least",
    "matched_any",
    "satisfies_at_least",
]
