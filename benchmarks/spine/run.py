"""spine: the repo's benchmark.  See README.md beside this file.

One pass (what BENCHMARK.json's command runs)::

    python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced then traced, each pass in a fresh process, written
to results/spine/latest.json::

    python3 benchmarks/spine/run.py --seed 1 [--workload NAME] [--quick]
    python3 benchmarks/spine/run.py --aa 5        # A/A: N full runs -> aa.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(ROOT, "results", "spine")
INFO_PREFIX = "spine-info: "
#: Full set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3
QUICK_SECONDS = 2


def _bootstrap() -> dict:
    """Check the checkout, pin the hash seed, make the packages importable."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(spec_path):
        sys.exit("spine: no program to measure here (src/repro or BENCHMARK.json missing)")
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if hasattr(os, "sched_setaffinity"):
        # One core for client, event loop and workers alike: under the GIL
        # they never run together anyway, and hand-offs that cross cores
        # are the noisiest thing on a shared 2-core box.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The script's own directory holds modules named like stdlib ones
    # (trace.py); import them as the package ``spine`` instead.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]
    with open(spec_path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One pass: one workload, traced or not, in this process
# ---------------------------------------------------------------------------


def _make_workload(name: str, seed: int, seconds: float):
    if name.startswith("embed_"):
        from spine.embed import Embedded

        return Embedded(name, seed, seconds)
    from spine.serve import Served

    return Served(name, seed, seconds, os.path.join(RESULTS, "tmp"))


def _op_digest(workload) -> str:
    body = json.dumps(
        [workload.ops, getattr(workload, "replay_ops", []),
         getattr(workload, "initial_prefs", None), getattr(workload, "profiles", None)],
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _timed_phase(workload, clock) -> dict:
    """Run the op list once, closed loop; per-op wall intervals by kind."""
    from repro.errors import Overloaded, ReproError
    from spine.calib import Pacer

    pacer = Pacer(clock)
    intervals = {"query": [], "write": []}
    failed = {"shed": 0, "typed": 0, "untyped": 0}
    now = clock.now
    clock.sample(3)
    workload.timed_started()
    for index, op in enumerate(workload.ops):
        started = now()
        try:
            answer = workload.execute(op)
        except Overloaded:
            failed["shed"] += 1
            continue
        except ReproError:
            failed["typed"] += 1
            continue
        except Exception:  # noqa: BLE001 - counted as a failed op, run goes on
            failed["untyped"] += 1
            continue
        finally:
            ended = now()
            pacer.spent(ended - started)
        intervals["query" if op[0] == "query" else "write"].append((started, ended))
        if workload.verify(index, op, answer):
            clock.sample()
    workload.timed_ended()
    clock.sample(3)
    return {"intervals": intervals, "failed": failed}


def _end_to_end(clock, timed: dict, setup_s: list[float]) -> tuple[dict, dict]:
    from spine.calib import percentile, supported

    metrics = {"setup_s": statistics.median(setup_s)}
    info: dict = {"setup_s_each": setup_s}
    total_ms = 0.0
    completed = 0
    for kind, intervals in timed["intervals"].items():
        cal = [clock.calibrated_ms(a, b) for a, b in intervals]
        raw = [(b - a) * 1e3 for a, b in intervals]
        total_ms += sum(cal)
        completed += len(cal)
        metrics[f"{kind}_p50_ms"] = percentile(cal, 0.50)
        metrics[f"{kind}_p90_ms"] = percentile(cal, 0.90)
        info[f"{kind}_samples"] = len(cal)
        info[f"{kind}_p90_supported"] = supported(len(cal), 0.90)
        info[f"{kind}_raw_p50_ms"] = percentile(raw, 0.50)
    metrics["ops_per_s"] = completed / (total_ms / 1e3)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, info


def run_pass(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    from spine.calib import CalClock
    from spine.trace import Recorder

    began = time.perf_counter()
    phases: dict[str, float] = {}
    clock = CalClock()
    workload = _make_workload(name, seed, seconds)
    setup_s: list[float] = []
    try:
        for repeat in range(1 if trace else SETUPS):
            if repeat:
                workload.teardown()
                # Repeating the set-up is this benchmark's doing: drop the
                # previous one now, so peak RSS is that of one set-up.
                gc.collect()
            clock.sample(5)
            started = clock.now()
            workload.setup()
            ended = clock.now()
            clock.sample(4)
            setup_s.append(clock.calibrated_ms(started, ended, nearest=9) / 1e3)
        phases["setup_s"] = time.perf_counter() - began
        mark = time.perf_counter()
        timed = _timed_phase(workload, clock)
        phases["timed_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        recorder = Recorder() if trace else None
        layers, extra = workload.finish(clock, recorder)
        phases["finish_s"] = time.perf_counter() - mark
    finally:
        workload.teardown()

    end_to_end, info = _end_to_end(clock, timed, setup_s)
    # Steady on serve_*, but on embed_* a 0.25 ms write's p90 sits where the
    # collector's passes begin: reported, never gated.
    layers["e2e.write_p90_ms"] = end_to_end.pop("write_p90_ms")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = layers if trace else end_to_end
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        workload.failures.append(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A per-layer metric a workload's ops never reach reads 0.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        recorder.write_jsonl(os.path.join(RESULTS, f"trace-{name}.jsonl"))
    failed = timed["failed"]
    attempted = len(workload.ops)
    info.update(extra)
    info.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        op_list_sha256=_op_digest(workload), ops_attempted=attempted,
        ops_failed=sum(failed.values()), failed_by_kind=failed,
        check_failures=workload.failures, cal=clock.summary(), phases_s=phases,
        wall_s=time.perf_counter() - began, gc_enabled=gc.isenabled(),
    )
    if trace:
        info["end_to_end_of_traced_pass"] = end_to_end

    print(f"spine {name} seed={seed} seconds={seconds} trace={int(trace)}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:42s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  ops_attempted={attempted} ops_failed={sum(failed.values())} {failed}")
    print(f"  samples: query={info['query_samples']} write={info['write_samples']}"
          f"  p90 supported: query={info['query_p90_supported']} write={info['write_p90_supported']}")
    print("  phases (wall s): " + ", ".join(f"{k}={v:.2f}" for k, v in phases.items())
          + f", total={info['wall_s']:.2f}")
    for failure in workload.failures:
        print(f"  CHECK FAILED: {failure}")
    print(INFO_PREFIX + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not workload.failures,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": metrics,
    }))
    return 1 if workload.failures else 0


# ---------------------------------------------------------------------------
# Full runs: every pass in a fresh process
# ---------------------------------------------------------------------------


def _spawn_pass(name: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write(done.stdout)
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        sys.exit(f"spine: pass {name} trace={trace} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["info"] = next(
        json.loads(line[len(INFO_PREFIX):]) for line in lines if line.startswith(INFO_PREFIX)
    )
    return result


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "gc": "enabled",
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def full_run(names: list[str], seed: int, seconds: float) -> dict:
    began = time.perf_counter()
    workloads = {}
    for name in names:
        untraced = _spawn_pass(name, seed, seconds, 0)
        traced = _spawn_pass(name, seed, seconds, 1)
        workloads[name] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "ops_attempted": untraced["attempted"],
            "ops_failed": untraced["failed"],
            "correct": untraced["correct"] and traced["correct"],
            "info": {"untraced": untraced["info"], "traced": traced["info"]},
        }
    report = {
        "benchmark": "spine",
        "seed": seed,
        "seconds": seconds,
        "env": _environment(),
        "workloads": workloads,
        "wall_s": time.perf_counter() - began,
    }
    print(f"spine: {len(names)} workload(s), total wall {report['wall_s']:.1f} s")
    return report


#: Counts that must repeat exactly between runs of one seed.
EXACT = (
    "cache.hit_ratio", "cache.evictions", "cache.invalidations_per_write",
    "engine.tuples_scanned_per_query", "engine.tuples_materialized_per_query",
    "engine.index_lookups_per_query", "engine.rows_examined_per_result",
    "wal.bytes_per_write", "wal.fsyncs_per_write", "net.request_bytes",
    "net.reply_bytes_per_query", "serve.recover_records",
)


def exact_fingerprint(workload_report: dict) -> dict:
    """What two runs of one seed must agree on, digit for digit."""
    info = workload_report["info"]
    out = {name: workload_report["per_layer"][name]["value"] for name in EXACT}
    for phase in ("untraced", "traced"):
        for key in ("op_list_sha256", "query_samples", "write_samples", "ops_attempted"):
            out[f"{phase}.{key}"] = info[phase][key]
    return out


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median,
        "range_over_median": (max(values) - min(values)) / median,
    }


def aa_run(spec: dict, names: list[str], seed: int, seconds: float, repeats: int) -> int:
    runs = [full_run(names, seed, seconds) for _ in range(repeats)]
    if seconds == spec["run_seconds"] and len(names) == len(spec["workloads"]):
        _write_json("latest.json", runs[0])
    other = full_run(names[:1], seed + 1, min(seconds, QUICK_SECONDS))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    report: dict = {"benchmark": "spine", "seed": seed, "seconds": seconds,
                    "repeats": repeats, "env": _environment(), "workloads": {}}
    for name in names:
        cells = {}
        for metric, bound in bounds.items():
            cell = spread([run["workloads"][name]["end_to_end"][metric]["value"] for run in runs])
            cell["bound"] = bound
            cell["within_bound"] = cell["range_over_median"] <= bound
            cells[metric] = cell
        prints = [exact_fingerprint(run["workloads"][name]) for run in runs]
        identical = all(p == prints[0] for p in prints)
        if not identical:
            problems.append(f"{name}: exact counts differ between runs of seed {seed}")
        report["workloads"][name] = {"end_to_end": cells, "exact": prints[0],
                                     "exact_identical": identical}
    first = names[0]
    same_ops = (
        other["workloads"][first]["info"]["untraced"]["op_list_sha256"]
        == runs[0]["workloads"][first]["info"]["untraced"]["op_list_sha256"]
    )
    if same_ops:
        problems.append(f"{first}: seed {seed + 1} produced the op list of seed {seed}")
    report["problems"] = problems
    _write_json("aa.json", report)
    for name, body in report["workloads"].items():
        for metric, cell in body["end_to_end"].items():
            flag = "ok" if cell["within_bound"] else "OUTSIDE BOUND"
            print(f"aa {name:12s} {metric:14s} median={cell['median']:.4f} "
                  f"range/median={cell['range_over_median']:.4f} bound={cell['bound']} {flag}")
    for problem in problems:
        print(f"aa PROBLEM: {problem}")
    return 1 if problems else 0


def _write_json(filename: str, payload: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, filename), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    spec = _bootstrap()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s passes: a smoke test, never a basis for a claim")
    parser.add_argument("--aa", type=int, metavar="N", help="N full runs, written to aa.json")
    args = parser.parse_args()
    seconds = QUICK_SECONDS if args.quick else args.seconds
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_pass(spec, args.workload, args.seed, seconds, bool(args.trace))
    chosen = [args.workload] if args.workload else names
    if args.aa:
        return aa_run(spec, chosen, args.seed, seconds, args.aa)
    report = full_run(chosen, args.seed, seconds)
    if seconds == spec["run_seconds"] and chosen == names:
        _write_json("latest.json", report)
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
