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

Plus the runtime side of the same catalog:
:mod:`~repro.analysis_static.sanitizer` — opt-in concurrency instrumentation
(lock order, COW snapshot discipline, WAL durability protocol; SANxxx codes).

This package init is deliberately lazy (PEP 562): the sanitizer is imported
from low-level modules (``serve.rwlock``, ``engine.table``) that must not
drag the verifier — and through it the whole engine — into their import
graph.  Only ``repro.analysis_static.sanitizer`` itself (which depends on
nothing but :mod:`~repro.analysis_static.diagnostics`) is safe to import
from those layers.
"""

_EXPORTS = {
    "CATALOG": "diagnostics",
    "Diagnostic": "diagnostics",
    "Severity": "diagnostics",
    "make_diagnostic": "diagnostics",
    "PlanVerifier": "verifier",
    "verify_plan": "verifier",
    "LintFinding": "lint",
    "lint_paths": "lint",
    "run_lint": "lint",
    "Sanitizer": "sanitizer",
    "current_sanitizer": "sanitizer",
    "env_sanitize_enabled": "sanitizer",
    "use_sanitizer": "sanitizer",
    "install_sanitizer": "sanitizer",
    "uninstall_sanitizer": "sanitizer",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
