"""``--quick`` end to end: both passes of one workload, in fresh processes."""

import json
import os
import subprocess
import sys

from spine.run import HERE as SPINE, ROOT


def _run(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(SPINE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return results


def _declared(group):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"] for m in json.load(handle)[group]}


def test_quick_run_of_one_workload():
    untraced, traced = _run("--quick", "--workload", "embed_prefs")
    assert set(untraced["metrics"]) == _declared("end_to_end")
    assert set(traced["metrics"]) == _declared("per_layer")


def test_served_pass_leaves_nothing_behind():
    (traced,) = _run("--workload", "serve_churn", "--seed", "5", "--seconds", "2", "--trace", "1")
    assert set(traced["metrics"]) == _declared("per_layer")
    assert traced["metrics"]["serve.recover_records"]["value"] > 0
    scratch = os.path.join(ROOT, "results", "spine", "tmp")
    assert not os.path.isdir(scratch) or not os.listdir(scratch)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark, exit non-zero, print no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(SPINE, tmp_path / "benchmarks" / "spine")
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "embed_join",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
