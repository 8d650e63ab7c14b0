"""AST-based source lint enforcing repo-wide algebraic-safety invariants.

Run as ``python -m repro.lint [paths...]`` (default: the installed ``repro``
package).  Rules (catalog codes LN1xx, see ``docs/STATIC_ANALYSIS.md``):

* **LN101** — no raw ``==`` / ``!=`` where an operand is a score value
  (a name ending in ``score``): combined scores are floats built from
  arithmetic, so exact comparison is a latent bug; use
  :func:`repro.core.scorepair.scores_close` or ``ScorePair.approx_equal``.
* **LN102** — no literal ⊥-pair construction (``ScorePair(None, ...)`` /
  ``pair(BOTTOM, ...)``) outside ``core/scorepair.py``: use the
  ``IDENTITY`` constant or the ``bottom()`` helper so the representation
  of ⊥ stays a single-module decision.
* **LN103** — strict plan-node dispatchers (a function whose last statement
  raises, after ``isinstance`` checks over several ``PlanNode`` subclasses)
  must cover *every* concrete subclass; a new node class added to
  ``plan/nodes.py`` then shows up as a lint error in every visitor that
  does not handle it.
* **LN104** — the aggregate registry in ``core/aggregates.py`` may only be
  mutated through :func:`repro.core.aggregates.register_aggregate`, which
  law-checks the function first.
* **LN105** — every registered aggregate function must satisfy Definition
  3's laws (associativity, commutativity, identity ``⟨⊥,0⟩``); checked by
  re-running the law suite against the live registry.

Fault-injection and durability rules (LN3xx):

* **LN302** — a fault-site string literal (``FaultSpec(...)`` /
  ``FaultPlan.transient/latency/corrupting(...)`` / ``.at("...")`` /
  ``.corrupts("...")`` / any ``site=`` keyword or ``*_SITE`` constant) is
  not in :data:`repro.resilience.faults.KNOWN_SITES` and is not a
  ``prefix*`` pattern matching one.  A typo'd site never fires, and a
  passing chaos suite cannot tell that from genuine robustness.
* **LN305** — a durability module (``engine/persist.py``, ``serve/wal.py``,
  ``serve/server.py``) performs direct file I/O — a bare ``open(...)`` call
  or ``os.fsync`` / ``os.replace`` / ``os.remove`` — instead of going
  through the ambient VFS (:mod:`repro.resilience.vfs`).  Bypassing the
  VFS makes the I/O invisible to the crash-torture harness: its fault
  injection and power-cut modelling can no longer prove that code path
  recovers.

Serving-layer cache-coherence rules (LN4xx), added with the result cache:

* **LN401** — a serving-layer module (under ``serve/`` or ``cache/``, other
  than ``serve/server.py`` itself) mutates the shared ``PreferenceStore``
  or ``Database`` directly (``<x>.store.add/add_all/remove/clear(...)``,
  ``<x>.db.insert/insert_many/create_table/drop_table(...)``).  Every
  committed mutation must flow through the :class:`PreferenceServer`
  single-writer mutators, whose commit feed (``add_listener``) is what
  invalidates the digest-keyed result cache — a bypassing write leaves it
  silently stale.

Suppression: append ``# noqa: LN103`` (or a comma-separated code list, or a
bare ``# noqa``) to the reported line.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
from dataclasses import dataclass

#: ``# noqa`` / ``# noqa: LN101, LN103`` at end of line.
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Minimum number of distinct concrete plan classes an isinstance chain must
#: mention before LN103 treats the function as a plan-node dispatcher.
_DISPATCH_THRESHOLD = 3

#: Modules whose file I/O must flow through the ambient VFS (LN305).
_DURABILITY_MODULES = ("engine/persist.py", "serve/wal.py", "serve/server.py")

#: ``os.<attr>`` calls LN305 flags inside durability modules.
_DIRECT_OS_IO = frozenset({"fsync", "replace", "remove"})

#: ``<x>.store.<method>(...)`` calls LN401 flags in serving-layer modules:
#: PreferenceStore mutators that the PreferenceServer single-writer path
#: wraps with WAL logging and commit-feed notification.
_STORE_MUTATORS = frozenset({"add", "add_all", "remove", "clear"})

#: ``<x>.db.<method>(...)`` calls LN401 flags in serving-layer modules.
_DB_MUTATORS = frozenset({"insert", "insert_many", "create_table", "drop_table"})


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
# Plan-node class discovery (LN103)
# ---------------------------------------------------------------------------


def _plan_class_coverage() -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """Returns (all concrete PlanNode class names, name -> concrete names it
    covers in an isinstance check).  Discovered dynamically so the lint rule
    tracks ``plan/nodes.py`` without a hand-maintained list."""
    from ..plan.nodes import PlanNode

    coverage: dict[str, frozenset[str]] = {}

    def collect(cls: type) -> set[str]:
        covered: set[str] = set()
        # Only classes defined inside the package count as plan nodes a
        # dispatcher must cover — test suites subclass PlanNode to exercise
        # fallback paths, and those must not poison LN103 for everyone.
        if (
            cls is not PlanNode
            and not cls.__name__.startswith("_")
            and cls.__module__.split(".")[0] == "repro"
        ):
            covered.add(cls.__name__)
        for sub in cls.__subclasses__():
            covered |= collect(sub)
        coverage[cls.__name__] = frozenset(covered)
        return covered

    concrete = frozenset(collect(PlanNode))
    return concrete, coverage


# ---------------------------------------------------------------------------
# Per-file AST checks
# ---------------------------------------------------------------------------


def _is_score_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name.lower().endswith("score")


def _callee_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_bottom_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    return _callee_name(node) == "BOTTOM" or (
        isinstance(node, ast.Name) and node.id == "BOTTOM"
    )


def _isinstance_class_names(tree: ast.AST) -> set[str]:
    """All class names mentioned as the second argument of ``isinstance``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for candidate in candidates:
            name = _callee_name(candidate) or (
                candidate.id if isinstance(candidate, ast.Name) else None
            )
            if name:
                names.add(name)
    return names


class _FileChecker(ast.NodeVisitor):
    def __init__(self, path: str, concrete: frozenset[str], coverage: dict[str, frozenset[str]]):
        self.path = path
        self.concrete = concrete
        self.coverage = coverage
        self.findings: list[LintFinding] = []
        self._function_stack: list[str] = []
        normalized = path.replace(os.sep, "/")
        self.is_scorepair = normalized.endswith("core/scorepair.py")
        self.is_durability = normalized.endswith(_DURABILITY_MODULES)
        # LN401 scope: the serving layer, minus the single-writer path itself
        # (serve/server.py owns the mutex, the WAL and the commit feed — its
        # store/db calls *are* the sanctioned write path).
        self.is_serving = (
            "/serve/" in normalized or "/cache/" in normalized
        ) and not normalized.endswith("serve/server.py")

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            LintFinding(self.path, getattr(node, "lineno", 0), code, message)
        )

    # -- LN101: raw equality on scores --------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_score_name(operands[index]) or _is_score_name(operands[index + 1])
            ):
                self._report(
                    node,
                    "LN101",
                    "raw == / != on a score value; use scores_close() or "
                    "ScorePair.approx_equal (floats from combined pairs)",
                )
        self.generic_visit(node)

    # -- LN102: ⊥-pair literals ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if not self.is_scorepair and _callee_name(node.func) in ("ScorePair", "pair"):
            first_arg: ast.AST | None = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "score":
                    first_arg = keyword.value
            if first_arg is not None and _is_bottom_literal(first_arg):
                self._report(
                    node,
                    "LN102",
                    "literal ⊥ score-pair construction outside core/scorepair.py; "
                    "use IDENTITY or bottom()",
                )
        self._check_fault_site_call(node)
        self._check_durability_io(node)
        self._check_unhooked_mutation(node)
        self.generic_visit(node)

    # -- LN401: serving-layer writes that bypass the commit feed -------------

    def _check_unhooked_mutation(self, node: ast.Call) -> None:
        if not self.is_serving:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if isinstance(owner, ast.Attribute):
            owner_name = owner.attr
        elif isinstance(owner, ast.Name):
            owner_name = owner.id
        else:
            return
        if owner_name == "store" and func.attr in _STORE_MUTATORS:
            what = "PreferenceStore"
        elif owner_name == "db" and func.attr in _DB_MUTATORS:
            what = "Database"
        else:
            return
        self._report(
            node,
            "LN401",
            f"{what} mutated via .{owner_name}.{func.attr}() outside the "
            "server's single-writer path; route the write through the "
            "PreferenceServer mutators so the commit feed invalidates the "
            "result cache",
        )

    # -- LN305: direct I/O bypassing the VFS in durability modules -----------

    def _check_durability_io(self, node: ast.Call) -> None:
        if not self.is_durability:
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            self._report(
                node,
                "LN305",
                "direct open() in a durability module bypasses the VFS; use "
                "current_vfs().open() so crash-torture can inject faults here",
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _DIRECT_OS_IO
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
        ):
            self._report(
                node,
                "LN305",
                f"direct os.{func.attr}() in a durability module bypasses the "
                "VFS; use the current_vfs() primitive so crash-torture can "
                "inject faults here",
            )

    # -- LN302: fault-site literal validation --------------------------------

    def _check_fault_site_call(self, node: ast.Call) -> None:
        callee = _callee_name(node.func)
        site_node: ast.AST | None = None
        if callee == "FaultSpec" or (
            callee in ("transient", "latency", "corrupting")
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "FaultPlan"
        ):
            site_node = node.args[0] if node.args else None
        elif callee in ("at", "corrupts") and len(node.args) == 1:
            # Fault-plan visits; require a dotted literal so unrelated
            # .at()/.corrupts() methods never false-positive.
            arg = node.args[0]
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and "." in arg.value
            ):
                site_node = arg
        for keyword in node.keywords:
            if keyword.arg == "site":
                site_node = keyword.value
        if (
            site_node is not None
            and isinstance(site_node, ast.Constant)
            and isinstance(site_node.value, str)
        ):
            self._check_site(node, site_node.value)

    def _check_site(self, node: ast.AST, site: str) -> None:
        if not _is_known_site(site):
            self._report(
                node,
                "LN302",
                f"unknown fault site {site!r}: not in "
                "repro.resilience.faults.KNOWN_SITES (a typo'd site silently "
                "never fires)",
            )

    # -- LN103: exhaustive plan-node dispatch -------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_dispatch(node)
        self._check_site_defaults(node)
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def _check_site_defaults(self, node: ast.FunctionDef) -> None:
        """LN302 for ``site: str = "..."`` default parameter values."""
        positional = node.args.posonlyargs + node.args.args
        defaulted = positional[len(positional) - len(node.args.defaults):]
        pairs = list(zip(defaulted, node.args.defaults))
        pairs += [
            (arg, default)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if (
                arg.arg == "site"
                and isinstance(default, ast.Constant)
                and isinstance(default.value, str)
            ):
                self._check_site(default, default.value)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_dispatch(self, node: ast.FunctionDef) -> None:
        last = node.body[-1]
        if not isinstance(last, ast.Raise):
            return
        mentioned = _isinstance_class_names(node)
        covered: set[str] = set()
        for name in mentioned:
            covered |= self.coverage.get(name, frozenset())
        if len(covered) < _DISPATCH_THRESHOLD:
            return
        missing = sorted(self.concrete - covered)
        if missing:
            self.findings.append(
                LintFinding(
                    self.path,
                    last.lineno,
                    "LN103",
                    f"strict plan-node dispatch in {node.name}() misses "
                    f"{', '.join(missing)}; handle them or fall through "
                    "without raising",
                )
            )

    # -- LN104: registry mutation -------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_registry_target(target, node)
            # LN302 also covers `FAULT_SITE = "..."`-style constants.
            if (
                isinstance(target, ast.Name)
                and target.id.upper().endswith("SITE")
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self._check_site(node, node.value.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_registry_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_registry_target(target, node)
        self.generic_visit(node)

    def _check_registry_target(self, target: ast.AST, node: ast.AST) -> None:
        if (
            isinstance(target, ast.Subscript)
            and _registry_ref(target.value)
            and not self._inside_registrar()
        ):
            self._report(
                node,
                "LN104",
                "aggregate registry mutated directly; go through "
                "register_aggregate() so the laws are checked",
            )

    def _inside_registrar(self) -> bool:
        return "register_aggregate" in self._function_stack

    def _check_registry_method(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("update", "setdefault", "pop", "clear")
            and _registry_ref(func.value)
            and not self._inside_registrar()
        ):
            self._report(
                node,
                "LN104",
                f"aggregate registry mutated via .{func.attr}(); go through "
                "register_aggregate() so the laws are checked",
            )

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._check_registry_method(node)
        super().generic_visit(node)


def _registry_ref(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "_REGISTRY") or (
        isinstance(node, ast.Attribute) and node.attr == "_REGISTRY"
    )


def _is_known_site(site: str) -> bool:
    """Is *site* (exact or ``prefix*``) in the fault-site registry?"""
    from ..resilience.faults import KNOWN_SITES

    if site.endswith("*"):
        prefix = site[:-1]
        return any(known.startswith(prefix) for known in KNOWN_SITES)
    return site in KNOWN_SITES


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
    concrete, coverage = _plan_class_coverage()
    checker = _FileChecker(path, concrete, coverage)
    checker.visit(tree)
    lines = source.splitlines()
    kept = []
    for finding in checker.findings:
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
