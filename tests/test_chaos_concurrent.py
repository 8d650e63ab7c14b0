"""Concurrent chaos and its CLI entry point.

A small-scale version of the acceptance scenario: N writers and M readers
against one server, every reader cell judged against the oracle computed on
its own snapshot.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.resilience.chaos_concurrent import run_concurrent_chaos
from repro.resilience.opmodel import POOL, read_sql
from repro.serve.server import PreferenceServer
from repro.workloads.imdb import generate_imdb

SMALL = dict(scale=0.0005, writers=2, readers=2, queries_per_reader=3)


def test_concurrent_chaos_small_run_conforms():
    report = run_concurrent_chaos(seed=7, **SMALL)
    assert report.ok, report.describe()
    cells = SMALL["readers"] * SMALL["queries_per_reader"]
    assert len(report.cells) == cells
    assert all(cell.ok for cell in report.cells)
    # Every third cell is digest-checked, empty buckets too.
    assert report.counts["snapshot_checks"] == math.ceil(cells / 3)
    assert report.counts["writer_ops"] > 0
    assert report.errors == []
    assert "memo.hits: " in report.describe()


@pytest.mark.parametrize("seed", range(1, 21))
def test_paced_inserts_let_reads_hit_the_block_memo(seed):
    # Row inserts wait for a strategy rotation of reads, so several reads
    # share each data version and reuse its preference-free blocks.
    report = run_concurrent_chaos(seed=seed, **SMALL)
    assert report.ok, report.describe()
    assert report.counts["memo.hits"] > 0, report.describe()


def test_a_failing_write_fails_the_run(monkeypatch):
    # The error Table.insert raises on a primary-key clash: every writer
    # owns its keys, so no write may fail, whatever its message says.
    def clash(self, table, values):
        raise ReproError(f"duplicate primary key {tuple(values[:1])} in {table}")

    monkeypatch.setattr(PreferenceServer, "insert", clash)
    report = run_concurrent_chaos(seed=3, **SMALL)
    assert not report.ok
    assert any("duplicate primary key" in error for error in report.errors)


def test_a_wrong_answer_fails_its_cell(monkeypatch):
    # FtP's executor (handed the whole TOP 10 plan) drops one row: the
    # cell's answer digest then differs from the reference oracle's.
    from repro.core.prelation import PRelation
    from repro.pexec import engine

    execute_ftp = engine.execute_ftp

    def lossy(*args, **kwargs):
        result = execute_ftp(*args, **kwargs)
        return PRelation(result.schema, result.rows[1:], result.pairs[1:])

    monkeypatch.setattr(engine, "execute_ftp", lossy)
    report = run_concurrent_chaos(seed=7, **SMALL)
    assert not report.ok
    failed = [cell for cell in report.cells if not cell.ok]
    assert failed and {cell.label for cell in failed} == {"ftp"}
    assert {cell.outcome for cell in failed} == {"silent-mismatch"}
    assert all("rerun-matches" not in cell.detail for cell in failed)


def test_reader_snapshots_hit_the_live_block_memo_between_writes():
    # Preference writes move the store, not the data version, so reader
    # snapshots between them keep sharing the live server's block memo.
    server = PreferenceServer(generate_imdb(scale=0.0005, seed=7))
    server.add_preference("u0", POOL["y_1990"])
    for name in ("g_comedy", "d_1", "y_2000"):
        server.add_preference("u1", POOL[name])
        snapshot = server.snapshot()
        snapshot.session_for("u0").execute(read_sql(snapshot, "u0"), strategy="gbu")
    assert server.db.blocks.stats()["hits"] == 1  # stored on the second run


def test_cli_chaos_concurrent_scenario():
    code = main(
        [
            "chaos",
            "--scenario",
            "concurrent",
            "--scale",
            "0.0005",
            "--writers",
            "2",
            "--readers",
            "2",
            "--queries",
            "2",
            "--seed",
            "11",
        ]
    )
    assert code == 0


def test_cli_chaos_list_mentions_concurrent(capsys):
    assert main(["chaos", "--list"]) == 0
    assert "concurrent" in capsys.readouterr().out
