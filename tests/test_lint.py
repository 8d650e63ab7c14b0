"""Tests for the source linter (``python -m repro.lint``).

Each LN code (LN100, LN105, LN305) gets a minimal triggering case; the
runner tests lint the real source tree and require it to be clean — which
is exactly what the CI lint job enforces.
"""

from __future__ import annotations

import os
import pathlib
import re

from repro.analysis_static import lint
from repro.analysis_static.lint import lint_paths, lint_source, run_lint


def codes(findings):
    return [f.code for f in findings]


def lint_snippet(source, path="snippet.py"):
    return lint_source(path, source)


class TestLN100Syntax:
    def test_unparsable_file_is_ln100(self):
        found = lint_snippet("def broken(:\n")
        assert codes(found) == ["LN100"]


class TestLN105AggregateLaws:
    def test_live_registry_passes_the_law_suite(self):
        from repro.core.aggregates import verify_registered_aggregates

        assert verify_registered_aggregates() == []

    def test_law_breaking_aggregate_is_reported(self):
        from repro.core.aggregates import AggregateFunction, failed_laws

        class Subtraction(AggregateFunction):
            # Not commutative, no identity: every law should have a witness.
            name = "f_sub"

            def combine(self, a, b):
                from repro.core.scorepair import ScorePair

                return ScorePair(
                    (a.score or 0.0) - (b.score or 0.0), a.conf - b.conf
                )

        messages = failed_laws(Subtraction())
        assert messages  # at least one broken law with a witness
        assert any("commut" in m or "identity" in m or "assoc" in m for m in messages)


class TestSuppression:
    WAL = "src/repro/serve/wal.py"

    def test_bare_noqa_suppresses(self):
        assert lint_source(self.WAL, "h = open('x', 'w')  # noqa\n") == []

    def test_matching_code_suppresses(self):
        assert lint_source(self.WAL, "h = open('x', 'w')  # noqa: LN305\n") == []

    def test_other_code_does_not_suppress(self):
        found = lint_source(self.WAL, "h = open('x', 'w')  # noqa: BLE001\n")
        assert codes(found) == ["LN305"]


class TestRunner:
    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        found = lint_paths([str(tmp_path)], check_aggregates=False)
        assert codes(found) == ["LN100"]
        assert found[0].path.endswith("bad.py")

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert run_lint([str(bad)]) == 1
        assert "LN100" in capsys.readouterr().out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert run_lint([str(good)]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_repo_source_tree_is_clean(self):
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        assert lint_paths([package_root]) == []


class TestLN305DurabilityIO:
    def test_bare_open_in_durability_module_is_ln305(self):
        found = lint_source("src/repro/serve/wal.py", "h = open('x', 'w')\n")
        assert codes(found) == ["LN305"]

    def test_os_fsync_in_durability_module_is_ln305(self):
        found = lint_source(
            "src/repro/engine/persist.py", "os.fsync(handle.fileno())\n"
        )
        assert codes(found) == ["LN305"]

    def test_os_replace_and_remove_are_ln305(self):
        found = lint_source(
            "src/repro/serve/server.py",
            "os.replace('a.tmp', 'a')\nos.remove('b')\n",
        )
        assert codes(found) == ["LN305", "LN305"]

    def test_vfs_calls_are_fine(self):
        found = lint_source(
            "src/repro/serve/wal.py",
            "vfs = current_vfs()\n"
            "with vfs.open('x', 'w') as h:\n"
            "    vfs.fsync(h)\n"
            "vfs.replace('a.tmp', 'a')\n",
        )
        assert found == []

    def test_other_modules_may_do_direct_io(self):
        assert lint_snippet("h = open('x', 'w')\nos.replace('a', 'b')\n") == []

    def test_other_os_calls_are_fine_in_durability_modules(self):
        found = lint_source(
            "src/repro/serve/server.py", "p = os.path.join(a, b)\nos.listdir(a)\n"
        )
        assert found == []

    def test_noqa_suppresses_a_sanctioned_bypass(self):
        found = lint_source(
            "src/repro/serve/server.py",
            "os.remove(path)  # noqa: LN305 - GC of a superseded file\n",
        )
        assert found == []


class TestDocumentation:
    DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "STATIC_ANALYSIS.md"
    CODE = re.compile(r"\bLN\d{3}\b")

    def test_emitted_codes_are_exactly_the_documented_ones(self):
        emitted = set(self.CODE.findall(pathlib.Path(lint.__file__).read_text(encoding="utf-8")))
        documented = set(self.CODE.findall(self.DOC.read_text(encoding="utf-8")))
        assert emitted, "the scan found no LN code in lint.py"
        assert emitted == documented
