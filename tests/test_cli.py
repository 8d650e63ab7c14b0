"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main
from repro.pexec.engine import _OPTIMIZED_STRATEGIES, STRATEGIES


class TestInProcess:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "extended query plan" in out
        assert "-- gbu" in out and "-- reference" in out
        assert "Wall Street" in out

    def test_generate_and_query(self, tmp_path, capsys):
        assert main(["generate", "--dataset", "imdb", "--scale", "0.0005", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        sql = (
            "SELECT title FROM MOVIES WHERE year >= 2005 "
            "PREFERRING (year > 2008) SCORE 0.9 ON MOVIES TOP 3 BY score"
        )
        assert main(["query", "--db", str(tmp_path), sql]) == 0
        out = capsys.readouterr().out
        assert "MOVIES.title" in out
        assert "rows" in out

    def test_query_with_explain(self, tmp_path, capsys):
        main(["generate", "--scale", "0.0005", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["query", "--db", str(tmp_path), "--explain", "SELECT title FROM MOVIES TOP 2 BY conf"]) == 0
        out = capsys.readouterr().out
        assert "optimized plan" in out

    def test_query_limit_truncates(self, tmp_path, capsys):
        main(["generate", "--scale", "0.0005", "--out", str(tmp_path)])
        capsys.readouterr()
        main(["query", "--db", str(tmp_path), "--limit", "2", "SELECT title FROM MOVIES"])
        out = capsys.readouterr().out
        assert "rows total" in out

    def test_query_missing_db_errors(self, capsys, tmp_path):
        assert main(["query", "--db", str(tmp_path / "nope"), "SELECT title FROM MOVIES"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_strategy_errors(self, tmp_path, capsys):
        main(["generate", "--scale", "0.0005", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["query", "--db", str(tmp_path), "--strategy", "warp", "SELECT title FROM MOVIES"]) == 1


class TestQueryGuardsFlags:
    def test_expired_timeout_is_a_typed_cli_error(self, tmp_path, capsys):
        main(["generate", "--scale", "0.0005", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(
            ["query", "--db", str(tmp_path), "--timeout", "0",
             "SELECT title FROM MOVIES"]
        )
        assert code == 1
        assert "deadline" in capsys.readouterr().err

    def test_max_rows_budget_reported(self, tmp_path, capsys):
        main(["generate", "--scale", "0.0005", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(
            ["query", "--db", str(tmp_path), "--max-rows", "1",
             "SELECT title FROM MOVIES"]
        )
        assert code == 1
        assert "rows budget" in capsys.readouterr().err

    def test_generous_budgets_do_not_interfere(self, tmp_path, capsys):
        main(["generate", "--scale", "0.0005", "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(
            ["query", "--db", str(tmp_path), "--timeout", "60",
             "--max-rows", "100000", "SELECT title FROM MOVIES TOP 2 BY conf"]
        )
        assert code == 0
        assert "MOVIES.title" in capsys.readouterr().out


class TestChaosCommand:
    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "concurrent", "network",
        ]

    def test_unknown_scenario_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--scenario", "kaboom"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_single_scenario_run_passes(self, capsys):
        assert main(["chaos", "--scale", "0.0005", "--scenario", "concurrent",
                     "--writers", "1", "--readers", "1", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "concurrent chaos" in out and "OK" in out
        assert "crash-torture" not in out


class TestStaticAnalysisCommands:
    def test_lint_clean_tree(self, capsys):
        import os

        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        assert main(["lint", package_root]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 1
        assert "LN100" in capsys.readouterr().out


class TestSubprocess:
    def test_module_entry_point(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "demo"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "demo query" in completed.stdout

    def test_repl_pipe(self, tmp_path):
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--scale", "0.0005", "--out", str(tmp_path)],
            capture_output=True,
            timeout=120,
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "repl", "--db", str(tmp_path)],
            input="SELECT title FROM MOVIES TOP 2 BY conf\nbroken sql here\n\\q\n",
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "MOVIES.title" in completed.stdout
        assert "error" in completed.stdout  # the broken statement is reported


class TestSessionExplain:
    def test_explain_text(self, movie_db, example_preferences):
        from repro.query.session import Session

        session = Session(movie_db)
        session.register(example_preferences["p1"])
        text = session.explain(
            "SELECT genre FROM GENRES PREFERRING p1 TOP 2 BY score"
        )
        assert "extended query plan" in text
        assert "optimized plan (gbu)" in text
        assert "λ[p1]" in text

    def test_explain_non_optimizing_strategy(self, movie_db):
        from repro.query.session import Session

        session = Session(movie_db)
        text = session.explain("SELECT title FROM MOVIES", strategy="ftp")
        assert "prepared plan (ftp)" in text

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_explain_shows_the_plan_the_strategy_executes(self, movie_db, strategy):
        # The second tree is the optimizer's output exactly for the
        # strategies the engine optimizes for.
        from repro.plan.printer import explain as render
        from repro.query.session import Session

        session = Session(movie_db)
        sql = "SELECT title FROM MOVIES NATURAL JOIN GENRES WHERE year > 2000"
        text = session.explain(sql, strategy=strategy)
        executed = session.execute(sql, strategy=strategy).executed_plan
        stage = "optimized" if strategy in _OPTIMIZED_STRATEGIES else "prepared"
        assert f"{stage} plan ({strategy}):\n{render(executed)}" in text
