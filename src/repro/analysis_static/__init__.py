"""Static analysis over extended query plans and over the code base itself.

Two layers (see ``docs/STATIC_ANALYSIS.md``):

* :mod:`~repro.analysis_static.verifier` — a dataflow pass over plan trees
  that checks the algebraic preconditions of the paper's rewrite properties
  (4.1–4.4) *before* execution: score-filter placement, prefer pushdown
  targets, chain ordering, set-operation compatibility.
* :mod:`~repro.analysis_static.lint` — an AST-based checker over the source
  tree (``python -m repro.lint src``): every file parses, every registered
  aggregate obeys Definition 3's laws, and durability modules do their I/O
  through the VFS.
"""

from .diagnostics import CATALOG, Diagnostic, Severity, make_diagnostic
from .lint import LintFinding, lint_paths, run_lint
from .verifier import PlanVerifier, verify_plan

__all__ = [
    "CATALOG",
    "Diagnostic",
    "Severity",
    "make_diagnostic",
    "PlanVerifier",
    "verify_plan",
    "LintFinding",
    "lint_paths",
    "run_lint",
]
