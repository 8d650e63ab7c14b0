"""Static analysis over the code base itself.

:mod:`~repro.analysis_static.lint` is an AST-based checker over the source
tree (``python -m repro.lint src``): every file parses, every registered
aggregate obeys Definition 3's laws, and durability modules do their I/O
through the VFS (see ``docs/STATIC_ANALYSIS.md``).
"""

from .lint import LintFinding, lint_paths, run_lint

__all__ = [
    "LintFinding",
    "lint_paths",
    "run_lint",
]
