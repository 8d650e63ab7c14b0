"""AST-based source lint for the hazards that exist without the checker.

Run as ``python -m repro.lint [paths...]`` (default: the installed ``repro``
package).  Rules (catalog codes LNxxx, see ``docs/STATIC_ANALYSIS.md``):

* **LN100** — the file does not parse.
* **LN105** — every registered aggregate function must satisfy Definition
  3's laws (associativity, commutativity, identity ``⟨⊥,0⟩``); checked by
  re-running the law suite against the live registry, so a user-supplied
  aggregate that breaks them is caught.
* **LN305** — a durability module (``engine/persist.py``, ``serve/wal.py``,
  ``serve/server.py``) performs direct file I/O — a bare ``open(...)`` call
  or ``os.fsync`` / ``os.replace`` / ``os.remove`` — instead of going
  through the ambient VFS (:mod:`repro.resilience.vfs`).  Bypassing the
  VFS makes the I/O invisible to the crash-torture harness: its fault
  injection and power-cut modelling can no longer prove that code path
  recovers.

Suppression: append ``# noqa: LN305`` (or a comma-separated code list, or a
bare ``# noqa``) to the reported line.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
from dataclasses import dataclass

#: ``# noqa`` / ``# noqa: LN305, BLE001`` at end of line.
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Modules whose file I/O must flow through the ambient VFS (LN305).
_DURABILITY_MODULES = ("engine/persist.py", "serve/wal.py", "serve/server.py")

#: ``os.<attr>`` calls LN305 flags inside durability modules.
_DIRECT_OS_IO = frozenset({"fsync", "replace", "remove"})


@dataclass(frozen=True)
class LintFinding:
    """One lint rule violation at a source location."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


# ---------------------------------------------------------------------------
# Per-file AST checks
# ---------------------------------------------------------------------------


def _durability_io(path: str, tree: ast.AST) -> list[LintFinding]:
    """LN305: direct I/O bypassing the VFS in a durability module."""
    if not path.replace(os.sep, "/").endswith(_DURABILITY_MODULES):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            message = (
                "direct open() in a durability module bypasses the VFS; use "
                "current_vfs().open() so crash-torture can inject faults here"
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _DIRECT_OS_IO
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            message = (
                f"direct os.{func.attr}() in a durability module bypasses the "
                "VFS; use the current_vfs() primitive so crash-torture can "
                "inject faults here"
            )
        else:
            continue
        findings.append(LintFinding(path, node.lineno, "LN305", message))
    return findings


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _suppressed_codes(source_line: str) -> set[str] | None:
    """Codes suppressed on this line; empty set means "suppress everything"."""
    match = _NOQA.search(source_line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return set()
    return {c.strip().upper() for c in codes.split(",") if c.strip()}


def lint_source(path: str, source: str) -> list[LintFinding]:
    """Lint one file's text; applies ``# noqa`` suppressions."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [LintFinding(path, err.lineno or 0, "LN100", f"syntax error: {err.msg}")]
    lines = source.splitlines()
    kept = []
    for finding in _durability_io(path, tree):
        line = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        suppressed = _suppressed_codes(line)
        if suppressed is not None and (not suppressed or finding.code in suppressed):
            continue
        kept.append(finding)
    return kept


def _iter_python_files(paths: list[str]):
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames if d != "__pycache__"]
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        elif path.endswith(".py"):
            yield path


def _check_registered_aggregates() -> list[LintFinding]:
    """LN105: re-run the Definition 3 law suite against the live registry."""
    from ..core import aggregates

    findings = []
    for message in aggregates.verify_registered_aggregates():
        findings.append(LintFinding(aggregates.__file__, 0, "LN105", message))
    return findings


def lint_paths(paths: list[str], *, check_aggregates: bool = True) -> list[LintFinding]:
    """Lint every ``.py`` file under *paths* plus the semantic checks."""
    findings: list[LintFinding] = []
    for filename in _iter_python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            findings.extend(lint_source(filename, handle.read()))
    if check_aggregates:
        findings.extend(_check_registered_aggregates())
    return findings


def run_lint(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (0 = clean)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="algebraic-safety lint for the repro source tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    args = parser.parse_args(argv)
    paths = args.paths
    if not paths:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [package_root]
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


main = run_lint
