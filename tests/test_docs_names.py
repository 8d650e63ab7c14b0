"""Docs and exports name only things that exist.

A module, function, class or CLI command deleted from the package must
leave the documents and the ``__all__`` lists with it: every backticked
``repro.<dotted>`` name in README.md, DESIGN.md and ``docs/*.md`` must
import or resolve as an attribute, every name a ``repro`` package exports
in ``__all__`` must resolve, and every ``python -m repro <command>`` in
those documents must name a subcommand of the CLI's parser.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
DOTTED = re.compile(r"`(repro(?:\.\w+)+)")
#: ``python -m repro query`` or a ``demo|generate|...`` list, which may
#: continue on a ``#`` comment line (DESIGN.md's source tree).
COMMANDS = re.compile(r"python -m repro\s+((?:[\w-]+\|\s*#?\s*)*[\w-]+)")
SEPARATOR = re.compile(r"\|\s*#?\s*")


def resolve(dotted: str) -> object:
    """Import the longest module prefix of *dotted*, then walk attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


def documented_names() -> dict[str, list[str]]:
    """Each backticked ``repro.*`` name -> the documents naming it."""
    names: dict[str, list[str]] = {}
    for path in DOCUMENTS:
        for name in DOTTED.findall(path.read_text(encoding="utf-8")):
            names.setdefault(name, []).append(path.name)
    return names


def packages() -> list[str]:
    found = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(info.name)
    return found


def test_documents_name_something():
    # Guards the scan itself: a regex that matched nothing would pass vacuously.
    assert len(documented_names()) >= 40


@pytest.mark.parametrize("name", sorted(documented_names()))
def test_documented_name_resolves(name):
    try:
        resolve(name)
    except (ImportError, AttributeError) as err:
        where = ", ".join(sorted(set(documented_names()[name])))
        pytest.fail(f"{name} (named in {where}) does not resolve: {err}")


@pytest.mark.parametrize("package", packages())
def test_package_exports_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def cli_commands() -> set[str]:
    from repro.cli import build_parser

    [subparsers] = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return set(subparsers.choices)


def documented_command_lists(path: pathlib.Path) -> list[list[str]]:
    """Each ``python -m repro ...`` mention in *path* as its command names."""
    return [
        SEPARATOR.split(match.group(1))
        for match in COMMANDS.finditer(path.read_text(encoding="utf-8"))
    ]


def test_documented_commands_exist():
    unknown = {
        (path.name, name)
        for path in DOCUMENTS
        for names in documented_command_lists(path)
        for name in names
        if name not in cli_commands()
    }
    assert unknown == set()


def test_design_lists_every_command():
    lists = [names for names in documented_command_lists(ROOT / "DESIGN.md") if len(names) > 1]
    assert lists, "DESIGN.md no longer lists the CLI commands"
    for names in lists:
        assert set(names) == cli_commands()
