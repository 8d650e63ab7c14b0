"""Every third-party module the package imports is a declared dependency.

``pip install .`` installs only ``[project] dependencies``; an import that
is declared only under an extra (``[test]``) or not at all makes the CLI
die with ``ModuleNotFoundError`` on a plain install.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parent.parent


def third_party_imports() -> dict[str, set[str]]:
    """Top-level non-stdlib module -> the ``src/repro`` files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.name)
    return found


def test_runtime_imports_are_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    declared = {
        re.split(r"[\s<>=!~\[;]", requirement, maxsplit=1)[0].lower()
        for requirement in project["dependencies"]
    }
    imported = third_party_imports()
    assert "numpy" in imported  # the scan sees the workload generators
    missing = {name: files for name, files in imported.items() if name not in declared}
    assert missing == {}
