"""The diagnostics catalog is complete, live, and documented.

Every diagnostic code the source tree mentions must exist in
``repro.analysis_static.diagnostics.CATALOG``; every catalog entry must be
referenced somewhere outside the catalog module itself (no dead codes
lingering after a rule is removed); and every entry must appear in
``docs/STATIC_ANALYSIS.md`` so the reference doc cannot drift.  The scan is
textual on purpose — a code constructed dynamically would evade an
AST-level census, and nothing in the tree has a reason to do that.
"""

from __future__ import annotations

import pathlib
import re

from repro.analysis_static.diagnostics import CATALOG, Severity, make_diagnostic

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOCS = ROOT / "docs" / "STATIC_ANALYSIS.md"

CODE = re.compile(r"\b(?:PV|RW|LN)\d{3}\b")


def _codes_by_file() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for code in CODE.findall(path.read_text(encoding="utf-8")):
            found.setdefault(code, set()).add(path.name)
    return found


def test_every_mentioned_code_is_catalogued():
    unknown = {
        code: sorted(files)
        for code, files in _codes_by_file().items()
        if code not in CATALOG
    }
    assert not unknown, f"codes used in src but missing from CATALOG: {unknown}"


def test_no_dead_catalog_codes():
    found = _codes_by_file()
    dead = [
        code
        for code in CATALOG
        if not (found.get(code, set()) - {"diagnostics.py"})
    ]
    assert not dead, f"catalogued codes never referenced outside the catalog: {dead}"


def test_every_code_is_documented():
    documented = set(CODE.findall(DOCS.read_text(encoding="utf-8")))
    missing = sorted(set(CATALOG) - documented)
    assert not missing, f"codes missing from docs/STATIC_ANALYSIS.md: {missing}"


def test_catalog_entries_are_wellformed():
    for code, (severity, message) in CATALOG.items():
        assert isinstance(severity, Severity)
        assert message and len(message) > 15, f"{code} needs a real description"


def test_make_diagnostic_rejects_unknown_codes():
    import pytest

    with pytest.raises(KeyError):
        make_diagnostic("PV999", "nope", "here")


def test_family_severity_conventions():
    # PV2xx notes record facts a rewrite could not act on (INFO, not a
    # bug); every LN3xx code is a definite invariant violation.
    for code, (severity, _) in CATALOG.items():
        if code.startswith("PV2"):
            assert severity is Severity.INFO, code
        if code.startswith("LN3"):
            assert severity is Severity.ERROR, code
