"""Crash-torture: prove recovery under adversarial storage failures.

Two complementary drivers over the shared op model
(:mod:`repro.resilience.opmodel`), both judged by its one recovery verdict
(``python -m repro crash-torture --seed S --rounds N``):

* **In-process torture** (:func:`run_crash_torture`'s sweeps) — a seeded
  op stream of preference mutations, row inserts and checkpoints runs
  against a :class:`~repro.resilience.vfs.FaultyVFS`.  A probe run first
  enumerates every *injectable point* (each write, fsync, rename and
  directory fsync the workload performs); then, for every point, a fresh
  run injects one fault kind there (rotating through the kinds applicable
  at that op), the "machine loses power"
  (:meth:`~repro.resilience.vfs.FaultyVFS.power_cut` drops everything not
  durably on disk), and the directory is reopened under the real VFS.

* **Subprocess SIGKILL rounds** (:func:`sigkill_round`) — a real child
  process (``python -m repro.resilience.crashtest --child``) runs the same
  ops with genuine fsyncs, printing a flushed ``ACK i`` line after each
  durably acknowledged op.  The parent SIGKILLs it after a seeded number
  of acks, drains the pipe (an ack written before death is never lost, so
  the count is exact), and reopens the directory.

Every crash must pass :func:`~repro.resilience.opmodel.verify_recovery`,
across checkpoint log resets included.

A harness that cannot fail proves nothing: :func:`mutation_self_check`
deliberately breaks the WAL-replay path (drops every redone row) and
sweeps a small workload, which must then fail.  A missed mutation and a
fault kind no crash point exercised are errors of the run.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from itertools import islice

from ..errors import ResilienceError
from .opmodel import Report, apply_op, base_db, op_stream, oracle_digests, verify_recovery
from .vfs import FAULT_KINDS, KINDS_BY_OP, FaultyVFS, VfsFault, use_vfs

#: Users the torture workload mutates preferences for.
USERS = ("alice", "bob", "carol")


def torture_ops(seed: int, count: int) -> list[tuple]:
    """The first *count* ops of the torture stream for *seed*."""
    return list(islice(op_stream(seed, USERS), count))


def _run_workload(directory: str, ops: list[tuple], vfs) -> tuple[int, int]:
    """Run *ops* under *vfs* until done or crashed: ``(acked, issued)``.

    ``acked`` counts ops whose call returned (their durability was
    acknowledged); ``issued`` additionally counts the op in flight when the
    injected fault fired, whose record may or may not be on disk.
    """
    from ..serve.server import PreferenceServer

    acked = issued = 0
    with use_vfs(vfs):
        server = None
        try:
            server, _ = PreferenceServer.open(directory, initial=base_db(), sync=True)
            for op in ops:
                issued = acked + 1
                apply_op(server, op)
                acked = issued
        except (ResilienceError, OSError):
            pass  # the injected crash; state on disk is whatever survived
        finally:
            if server is not None:
                try:
                    server.close()
                except (ResilienceError, OSError):  # pragma: no cover
                    pass
    return acked, issued


def _verify(report: Report, context: str, directory: str, ops, digests, acked, issued):
    failure = verify_recovery(directory, ops, digests, acked, issued, initial=base_db())
    if failure:
        report.errors.append(f"{context}: {failure}")


def _fresh_dir(base_dir: str, name: str) -> str:
    path = os.path.join(base_dir, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _sweep(base_dir: str, name: str, ops: list[tuple], offset: int, report: Report) -> None:
    """Inject a fault at *every* injectable point of *ops*; verify each cut."""
    digests = oracle_digests(ops, base_db())
    probe = FaultyVFS()
    probe_dir = _fresh_dir(base_dir, f"{name}-probe")
    acked, _ = _run_workload(probe_dir, ops, probe)
    shutil.rmtree(probe_dir, ignore_errors=True)
    if acked != len(ops):
        report.errors.append(
            f"{name}: probe run crashed without injection ({acked}/{len(ops)} ops)"
        )
        return
    for step, (op_type, _path) in enumerate(probe.ops):
        kinds = KINDS_BY_OP[op_type]
        kind = kinds[(offset + step) % len(kinds)]
        vfs = FaultyVFS(VfsFault(step, kind))
        crash_dir = _fresh_dir(base_dir, f"{name}-{step}")
        acked, issued = _run_workload(crash_dir, ops, vfs)
        context = f"{name} step {step} ({kind} at {op_type})"
        if not vfs.fired:
            report.errors.append(f"{context}: scripted fault never fired")
        else:
            vfs.power_cut()
            report.count("crash_points")
            report.count(f"kind.{kind}")
            _verify(report, context, crash_dir, ops, digests, acked, issued)
        shutil.rmtree(crash_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Subprocess SIGKILL rounds
# ---------------------------------------------------------------------------


def _child_main(argv: list[str]) -> int:
    """``--child`` entry: run the workload durably, acking each op on stdout."""
    from ..serve.server import PreferenceServer

    options = dict(zip(argv[::2], argv[1::2]))
    ops = torture_ops(int(options["--seed"]), int(options["--count"]))
    server, _ = PreferenceServer.open(options["--dir"], initial=base_db(), sync=True)
    print("READY", flush=True)
    for index, op in enumerate(ops):
        apply_op(server, op)
        # Flushed *after* the op's durability point: an ACK in the pipe is
        # a promise the op survives any kill from now on.
        print(f"ACK {index + 1}", flush=True)
    print("DONE", flush=True)
    server.close()
    return 0


def sigkill_round(
    base_dir: str, seed: int, round_index: int, ops_count: int, report: Report
) -> None:
    """SIGKILL a real child mid-workload; recovery must keep every acked op."""
    ops = torture_ops(seed + round_index, ops_count)
    digests = oracle_digests(ops, base_db())
    child_dir = _fresh_dir(base_dir, f"sigkill-{round_index}")
    rng = random.Random(seed * 1_000_003 + round_index)
    kill_after = rng.randrange(1, max(2, ops_count))

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.resilience.crashtest",
            "--child",
            "--dir",
            child_dir,
            "--seed",
            str(seed + round_index),
            "--count",
            str(ops_count),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    acked = 0
    killed = done = False
    noise: list[str] = []
    assert proc.stdout is not None
    while True:
        line = proc.stdout.readline()
        if not line:
            break  # EOF: the child exited (or died); the pipe is drained
        line = line.strip()
        if line.startswith("ACK "):
            acked = int(line[4:])
            if not killed and acked >= kill_after:
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
        elif line == "DONE":
            done = True
        elif line and line != "READY":
            noise.append(line)
    proc.wait()
    report.count("sigkill_rounds")
    context = f"sigkill round {round_index} (killed after {acked} acks)"
    if killed:
        report.count("sigkill_kills")
    elif not done:
        report.errors.append(
            f"{context}: child died on its own: "
            + ("; ".join(noise[-3:]) if noise else f"exit {proc.returncode}")
        )
        shutil.rmtree(child_dir, ignore_errors=True)
        return
    issued = acked + 1 if killed else acked
    _verify(report, context, child_dir, ops, digests, acked, issued)
    shutil.rmtree(child_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Mutation self-check and the top-level loop
# ---------------------------------------------------------------------------

#: Workload guaranteed to put row inserts in the WAL, so a lossy replay
#: path must lose acknowledged data at some crash point.
_MUTATION_OPS = [
    ("pref.add", "alice", "d_1"),
    ("row.insert", "MOVIES", (901, "movie 901", 2008, 95, 1)),
    ("row.insert", "GENRES", (901, "Drama")),
    ("pref.add", "bob", "y_2000"),
]


def mutation_self_check(base_dir: str) -> bool:
    """Break replay on purpose; ``True`` when the harness caught it.

    Temporarily replaces the server's ``row.insert`` redo with a no-op —
    exactly the "silent row loss" bug the narrowed replay handler guards
    against — and sweeps every crash point of a small workload.  A harness
    that still reports success would prove nothing; this keeps it honest.
    """
    from ..serve.server import PreferenceServer

    original = PreferenceServer._replay_row_insert

    def lossy(self, payload):  # drops every redone row on the floor
        return None

    shadow = Report("mutation self-check", "lossy replay")
    PreferenceServer._replay_row_insert = lossy
    try:
        _sweep(base_dir, "mutation", _MUTATION_OPS, 0, shadow)
    finally:
        PreferenceServer._replay_row_insert = original
    return bool(shadow.errors)


def run_crash_torture(
    seed: int = 0,
    rounds: int = 10,
    *,
    ops: int = 18,
    sigkill_rounds: int | None = None,
    mutation_check: bool = True,
    directory: str | None = None,
) -> Report:
    """The full torture suite: in-process sweeps + SIGKILL rounds + self-check.

    Each of the *rounds* sweeps takes a fresh seeded workload of *ops* ops
    (fault kinds rotate so all of :data:`FAULT_KINDS` are exercised);
    *sigkill_rounds* defaults to ``max(1, rounds // 5)``.
    """
    report = Report("crash-torture", f"seed={seed} rounds={rounds}")
    if sigkill_rounds is None:
        sigkill_rounds = max(1, rounds // 5)
    own_dir = directory is None
    base_dir = directory or tempfile.mkdtemp(prefix="repro-crash-torture-")
    try:
        for round_index in range(rounds):
            round_ops = torture_ops(seed + round_index, ops)
            _sweep(base_dir, f"round {round_index}", round_ops, round_index, report)
        for round_index in range(sigkill_rounds):
            sigkill_round(base_dir, seed, round_index, ops, report)
        if mutation_check:
            caught = mutation_self_check(base_dir)
            report.counts["mutation_caught"] = int(caught)
            if not caught:
                report.errors.append("mutation self-check (lossy replay) MISSED")
    finally:
        if own_dir:
            shutil.rmtree(base_dir, ignore_errors=True)
    if rounds:
        for kind in FAULT_KINDS:
            if not report.counts.get(f"kind.{kind}"):
                report.errors.append(f"fault kind {kind} never exercised")
    return report


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        sys.exit(_child_main(sys.argv[2:]))
    sys.exit(0 if run_crash_torture().ok else 1)
