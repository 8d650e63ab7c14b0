"""Unit tests for the benchmark harness and reporting utilities."""

import os

import pytest

from repro.bench import (
    DEFAULT_STRATEGIES,
    bench_repeats,
    bench_scale,
    compare_strategies,
    format_table,
    matrix_table,
    measure,
    table2_properties,
    write_report,
)
from repro.bench.harness import Measurement, tracer_overhead
from repro.query.session import Session
from repro.workloads import imdb_2


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long header"], [[1, 2.5], ["xx", 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        text = format_table(["a"], [[1]], title="My Title")
        assert text.splitlines()[0] == "My Title"

    def test_float_formatting(self):
        text = format_table(["v"], [[123.456], [1.234], [0.00123], [0.0]])
        assert "123" in text and "1.23" in text and "0.0012" in text

    def test_write_report(self, tmp_path):
        path = write_report("unit", "hello", directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read() == "hello\n"


class TestEnvKnobs:
    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale(0.01) == 0.01

    def test_scale_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5

    def test_repeats_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REPEATS", "7")
        assert bench_repeats() == 7


class TestMeasure:
    def test_measure_sql(self, imdb_tiny):
        query = imdb_2(k=5)
        session = query.session(imdb_tiny)
        m = measure(session, query.sql, "gbu", repeats=2)
        assert m.strategy == "gbu"
        assert m.wall_ms > 0
        assert m.rows == 5
        assert len(m.runs) == 2

    def test_measure_plan(self, imdb_tiny):
        from repro.plan.builder import scan

        session = Session(imdb_tiny)
        m = measure(session, scan("DIRECTORS").build(), "ftp", repeats=1, label="dirs")
        assert m.query == "dirs"
        assert m.rows == len(imdb_tiny.table("DIRECTORS"))

    def test_traced_run_uses_the_measured_configuration(self, imdb_tiny, monkeypatch):
        query = imdb_2(k=5)
        session = query.session(imdb_tiny)
        calls = []
        execute = session.execute

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return execute(*args, **kwargs)

        monkeypatch.setattr(session, "execute", spy)
        m = measure(
            session, query.sql, "gbu", repeats=1, trace=True, timeout=60.0, columnar=True
        )
        assert m.trace.attrs["mode"] == "columnar"  # not a row trace
        assert len(calls) == 3  # warm-up, timed, traced
        assert all(call["guard"].timeout == 60.0 and call["columnar"] for call in calls)
        assert len({id(call["guard"]) for call in calls}) == 3  # a fresh deadline each

    @pytest.mark.parametrize("strategy", ["ftp", "gbu"])
    def test_every_run_starts_with_an_empty_block_memo(self, imdb_tiny, monkeypatch, strategy):
        query = imdb_2(k=5)
        session = query.session(imdb_tiny)
        for _ in range(2):  # leave a warm memo behind
            session.execute(query.sql, strategy=strategy)
        assert len(session.db.blocks) > 0
        memo_sizes, hits, results = [], [], []
        execute = session.execute

        def spy(*args, **kwargs):
            memo_sizes.append(len(session.db.blocks))
            result = execute(*args, **kwargs)
            hits.append(session.db.blocks.hits)
            results.append(result)
            return result

        monkeypatch.setattr(session, "execute", spy)
        measure(session, query.sql, strategy, repeats=3, trace=True)
        tracer_overhead(session, query.sql, strategy, repeats=2)
        assert len(memo_sizes) == 7 + 5
        assert memo_sizes == [0] * len(memo_sizes)
        assert hits == [0] * len(hits)  # every run cold
        timed = results[1:4]
        assert len({r.stats.cost["total_io"] for r in timed}) == 1
        assert all(r.stats.operators == timed[0].stats.operators for r in timed)

    def test_compare_strategies(self, imdb_tiny):
        query = imdb_2(k=5)
        measurements = compare_strategies(imdb_tiny, query, repeats=1)
        assert [m.strategy for m in measurements] == list(DEFAULT_STRATEGIES)
        rows = {m.rows for m in measurements}
        assert len(rows) == 1  # all strategies agree on the result size


class TestMatrixTable:
    def test_pivot(self):
        ms = [
            Measurement("Q1", "ftp", 1.0, 10, 5),
            Measurement("Q1", "gbu", 2.0, 20, 5),
            Measurement("Q2", "ftp", 3.0, 30, 7),
        ]
        text = matrix_table(ms, metric="wall_ms", title="T")
        assert "Q1" in text and "Q2" in text
        assert "ftp (ms)" in text and "gbu (ms)" in text
        assert "-" in text.splitlines()[-1]  # missing Q2/gbu cell

    def test_io_metric(self):
        ms = [Measurement("Q1", "ftp", 1.0, 10, 5)]
        text = matrix_table(ms, metric="total_io")
        assert "pages" in text


class TestTable2Properties:
    def test_properties(self, imdb_tiny):
        query = imdb_2(k=5)
        p = table2_properties(imdb_tiny, query)
        assert p["query"] == "IMDB-2"
        assert p["|R|"] == 2
        assert p["|λ|"] == 2
        assert p["P/NP"] == "2/0"
        assert p["N"] == 5
