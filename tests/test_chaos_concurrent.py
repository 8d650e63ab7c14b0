"""Concurrent chaos and its CLI entry point.

A small-scale version of the acceptance scenario: N writers and M readers
against one server, every reader cell judged against the oracle computed on
its own snapshot.
"""

from __future__ import annotations

import math

from repro.cli import main
from repro.resilience.chaos_concurrent import (
    READER_SQL,
    _base_preference,
    preference_pool,
    run_concurrent_chaos,
)
from repro.serve.server import PreferenceServer
from repro.workloads.imdb import generate_imdb


def test_concurrent_chaos_small_run_conforms():
    readers, queries = 2, 3
    report = run_concurrent_chaos(
        seed=7, scale=0.0005, writers=2, readers=readers, queries_per_reader=queries
    )
    assert report.ok, report.describe()
    assert len(report.cells) == readers * queries
    assert all(cell.ok for cell in report.cells)
    # Every third cell of each reader is digest-checked, empty buckets too.
    assert report.snapshot_checks == readers * math.ceil(queries / 3)
    assert report.writer_ops > 0
    assert report.errors == []
    # Readers take the production path through the live server's block
    # memo (whether a block repeats at one data version before the next
    # row insert is up to the thread schedule, so hits are not asserted).
    assert report.memo["hits"] + report.memo["misses"] > 0, report.describe()
    assert "block memo: hits=" in report.describe()


def test_reader_snapshots_hit_the_live_block_memo_between_writes():
    # Preference writes move the store, not the data version, so reader
    # snapshots between them keep sharing the live server's block memo.
    server = PreferenceServer(generate_imdb(scale=0.0005, seed=7))
    server.add_preference("u0", _base_preference())
    sql = READER_SQL.format(names="base")
    for preference in preference_pool()[:3]:
        server.add_preference("u1", preference)
        server.snapshot().session_for("u0").execute(sql, strategy="gbu")
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
