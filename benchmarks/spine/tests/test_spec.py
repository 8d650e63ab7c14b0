"""BENCHMARK.json against the contract and against results/spine/latest.json."""

import json
import os
import re

from spine.run import ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(*parts):
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_meets_the_contract():
    spec = _load("BENCHMARK.json")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


def test_latest_json_reports_everything_declared():
    spec = _load("BENCHMARK.json")
    latest = _load("results", "spine", "latest.json")
    assert set(latest["workloads"]) == {w["name"] for w in spec["workloads"]}
    for body in latest["workloads"].values():
        assert body["correct"] and body["ops_failed"] == 0 and body["ops_attempted"] >= 1
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            reported = {name: m["unit"] for name, m in body[group].items()}
            assert reported == declared
        assert all(m["value"] > 0 for m in body["end_to_end"].values())
        info = body["info"]["untraced"]
        assert info["query_p90_supported"] and info["write_p90_supported"]
