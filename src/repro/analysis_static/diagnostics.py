"""Diagnostic codes shared by the plan verifier and the linter.

Every finding any static-analysis layer produces is a :class:`Diagnostic`
with a stable code from :data:`CATALOG`; the catalog is the single source of
truth for severity and one-line summaries (``docs/STATIC_ANALYSIS.md``
documents each code with examples).  Codes are grouped by layer:

* ``PV1xx`` — plan-verifier invariants (Properties 4.1–4.4 preconditions);
* ``LNxxx`` — source-code lint findings (``LN105``: aggregate laws,
  ``LN305``: durability I/O through the VFS).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    """How bad a diagnostic is.

    ``ERROR`` findings make a plan unsound (``verify-plan`` always fails on them);
    ``WARNING`` findings are legal but suspicious (wasted scores, unordered
    chains); ``INFO`` findings record facts a rewrite could not act on.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: code -> (severity, one-line summary).  Keep in sync with
#: ``docs/STATIC_ANALYSIS.md``; the doc test cross-checks membership.
CATALOG: dict[str, tuple[Severity, str]] = {
    # -- plan verifier -------------------------------------------------------
    "PV100": (Severity.ERROR, "schema fault: an attribute or schema cannot be resolved"),
    "PV101": (Severity.ERROR, "score/conf selection below a prefer operator (Property 4.1)"),
    "PV102": (Severity.ERROR, "top-k filtering below a prefer operator"),
    "PV103": (Severity.ERROR, "prefer attributes unresolvable in its input (Property 4.4)"),
    "PV104": (Severity.WARNING, "prefer owner ambiguous: attributes resolve on both join inputs"),
    "PV105": (Severity.WARNING, "prefer chain not in ascending selectivity order (Property 4.3)"),
    "PV106": (Severity.ERROR, "set-operation inputs are not union-compatible"),
    "PV107": (Severity.WARNING, "prefer in the discarded input of a difference: scores never reach the root"),
    "PV108": (Severity.ERROR, "prefer operators disagree on their aggregate function F"),
    "PV109": (Severity.WARNING, "prefer in the unpreserved input of a left outer join"),
    "PV110": (Severity.WARNING, "score/conf filter over an input that evaluates no preference"),
    # -- code lint -----------------------------------------------------------
    "LN100": (Severity.ERROR, "source file does not parse"),
    "LN105": (Severity.ERROR, "registered aggregate function violates the algebraic laws"),
    "LN305": (Severity.ERROR, "direct file I/O in a durability module bypasses the crash-torture VFS"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``where`` locates the finding: a plan-node label for verifier codes, a
    ``file:line`` for lint codes.
    """

    code: str
    severity: Severity
    message: str
    where: str = ""

    def __str__(self) -> str:
        location = f" at {self.where}" if self.where else ""
        return f"{self.code} [{self.severity.value}]{location}: {self.message}"


def make_diagnostic(code: str, message: str, where: str = "") -> Diagnostic:
    """Build a :class:`Diagnostic`, pulling the severity from :data:`CATALOG`."""
    severity, _summary = CATALOG[code]
    return Diagnostic(code, severity, message, where)
