"""Crash-torture: prove recovery under adversarial storage failures.

Two complementary harnesses, both digest-verified against the same oracle
(``python -m repro crash-torture --seed S --rounds N``):

* **In-process torture** (:func:`run_crash_torture`'s main loop) — a seeded,
  always-valid workload of preference mutations, row inserts and
  checkpoints runs against a :class:`~repro.resilience.vfs.FaultyVFS`.
  A probe run first enumerates every *injectable point* (each write, fsync,
  rename and directory fsync the workload performs); then, for every point,
  a fresh run injects one fault kind there (rotating through the kinds
  applicable at that op), the "machine loses power"
  (:meth:`~repro.resilience.vfs.FaultyVFS.power_cut` drops everything not
  durably on disk), and the directory is reopened under the real VFS.

* **Subprocess SIGKILL rounds** (:func:`sigkill_round`) — a real child
  process (``python -m repro.resilience.crashtest --child``) runs the same
  workload with genuine fsyncs, printing a flushed ``ACK i`` line after
  each durably acknowledged op.  The parent SIGKILLs it after a seeded
  number of acks, drains the pipe (an ack written before death is never
  lost, so the count is exact), and reopens the directory.

Both assert the three recovery invariants:

1. **Acknowledged ops survive** — the recovered state digest is at least
   the prefix of every op whose call returned (``acked``).
2. **Recovery equals a prefix** — the digest equals *some* prefix of the
   issued sequence: at most the one op in flight at the crash may be
   included, and nothing out of order or invented.
3. **The LSN counts that prefix** — the recovered WAL's LSN equals the
   number of records the prefix appended, across checkpoint log resets,
   so a restarted server never reissues an LSN it already acknowledged.

Concretely: ``digest(recovered) ∈ {oracle[acked], …, oracle[issued]}``
where ``oracle[i]`` is the state digest after the first ``i`` ops, applied
to an ephemeral oracle server, and ``issued ≤ acked + 1`` (writes are
serial).  sha256 equality over the full logical state means nothing was
lost, duplicated, or invented.

A harness that cannot fail proves nothing: :func:`mutation_self_check`
deliberately breaks the WAL-replay path (drops every redone row) and runs
one torture round, which must then report failures.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

from ..core.preference import Preference
from ..core.scoring import recency_score
from ..engine.database import Database
from ..engine.expressions import cmp, eq
from ..engine.types import DataType
from ..errors import ResilienceError
from .vfs import FAULT_KINDS, KINDS_BY_OP, FaultyVFS, VfsFault, use_vfs

#: Users the scripted workload mutates preferences for.
USERS = ("alice", "bob", "carol")


def base_db() -> Database:
    """The small seed database every torture run starts from."""
    db = Database()
    db.create_table(
        "MOVIES",
        [
            ("m_id", DataType.INT),
            ("title", DataType.TEXT),
            ("year", DataType.INT),
            ("duration", DataType.INT),
            ("d_id", DataType.INT),
        ],
        primary_key=["m_id"],
    )
    db.insert_many(
        "MOVIES",
        [(1, "seed one", 1999, 100, 1), (2, "seed two", 2004, 110, 2)],
    )
    return db


def _pool() -> dict[str, Preference]:
    """Deterministic, WAL-loggable preferences, addressable by name."""
    prefs: list[Preference] = []
    for d_id in (1, 2, 3):
        prefs.append(Preference(f"d{d_id}", "MOVIES", eq("d_id", d_id), 0.9, 0.8))
    for year in (1990, 2000, 2005):
        prefs.append(
            Preference(
                f"y{year}",
                "MOVIES",
                cmp("year", ">=", year),
                recency_score("year", 2011),
                0.7,
            )
        )
    return {p.name: p for p in prefs}


def scripted_ops(seed: int, count: int) -> list[tuple]:
    """A seeded workload of *count* always-valid ops.

    The generator tracks which preference names are active per user, so
    every ``pref.add`` is new, every ``pref.remove``/``pref.clear`` removes
    something, and every ``row.insert`` uses a fresh primary key — each op
    both mutates state and appends exactly one WAL record (``checkpoint``
    appends none), which lets the harness equate op index and oracle
    prefix.
    """
    rng = random.Random(seed)
    pool_names = sorted(_pool())
    active: dict[str, set[str]] = {user: set() for user in USERS}
    ops: list[tuple] = []
    next_id = 900_000
    for index in range(count):
        user = USERS[index % len(USERS)]
        roll = rng.random()
        if roll < 0.40:
            candidates = [n for n in pool_names if n not in active[user]]
            if candidates:
                name = rng.choice(candidates)
                active[user].add(name)
                ops.append(("pref.add", user, name))
                continue
            roll = 0.9  # pool exhausted for this user: insert instead
        if roll < 0.55 and active[user]:
            name = rng.choice(sorted(active[user]))
            active[user].remove(name)
            ops.append(("pref.remove", user, name))
        elif roll < 0.62 and active[user]:
            active[user].clear()
            ops.append(("pref.clear", user))
        elif roll < 0.70 and index > 0:
            ops.append(("checkpoint",))
        else:
            next_id += 1
            ops.append(("row.insert", next_id))
    return ops


def apply_op(server, op: tuple) -> None:
    """Apply one scripted op to a live :class:`PreferenceServer`."""
    kind = op[0]
    if kind == "pref.add":
        server.add_preference(op[1], _pool()[op[2]])
    elif kind == "pref.remove":
        server.remove_preference(op[1], op[2])
    elif kind == "pref.clear":
        server.clear_preferences(op[1])
    elif kind == "row.insert":
        m_id = op[1]
        server.insert("MOVIES", (m_id, f"crash movie {m_id}", 2008, 95, 1))
    elif kind == "checkpoint":
        if server.directory is not None:  # the oracle is ephemeral
            server.checkpoint()
    else:  # pragma: no cover - generator and applier move together
        raise ValueError(f"unknown scripted op {kind!r}")


def oracle_digests(ops: list[tuple]) -> list[str]:
    """``oracle[i]`` = state digest after the first *i* ops (ephemeral)."""
    from ..serve.server import PreferenceServer

    oracle = PreferenceServer(base_db())
    digests = [oracle.state_digest()]
    for op in ops:
        apply_op(oracle, op)
        digests.append(oracle.state_digest())
    return digests


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class TortureReport:
    """Outcome of one :func:`run_crash_torture` invocation."""

    seed: int
    rounds: int
    #: In-process crash points injected (sum over rounds).
    crash_points: int = 0
    #: Fault kind -> number of injections that fired as that kind.
    kind_counts: dict[str, int] = field(default_factory=dict)
    sigkill_rounds: int = 0
    sigkill_kills: int = 0
    #: ``True`` when the deliberately broken recovery path was caught;
    #: ``None`` when the self-check was skipped.
    mutation_detected: bool | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def missing_kinds(self) -> list[str]:
        return [k for k in FAULT_KINDS if not self.kind_counts.get(k)]

    @property
    def ok(self) -> bool:
        if self.failures:
            return False
        if self.mutation_detected is False:
            return False
        if self.crash_points and self.missing_kinds:
            return False
        return True

    def describe(self) -> str:
        lines = [
            f"crash-torture: seed={self.seed} rounds={self.rounds} "
            f"crash-points={self.crash_points} "
            f"sigkill={self.sigkill_kills}/{self.sigkill_rounds}"
        ]
        kinds = " ".join(
            f"{kind}={self.kind_counts.get(kind, 0)}" for kind in FAULT_KINDS
        )
        lines.append(f"  kinds: {kinds}")
        if self.missing_kinds and self.crash_points:
            lines.append(f"  FAIL never exercised: {', '.join(self.missing_kinds)}")
        if self.mutation_detected is not None:
            verdict = "caught" if self.mutation_detected else "MISSED"
            lines.append(f"  mutation self-check (lossy replay): {verdict}")
        shown = self.failures[:20]
        lines.extend(f"  FAIL {failure}" for failure in shown)
        if len(self.failures) > len(shown):
            lines.append(f"  ... and {len(self.failures) - len(shown)} more")
        lines.append(
            "crash-torture: "
            + (
                "OK — every crash point recovered a digest- and LSN-verified prefix"
                if self.ok
                else "FAILED"
            )
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# In-process torture
# ---------------------------------------------------------------------------


def _run_workload(directory: str, ops: list[tuple], vfs) -> tuple[int, int]:
    """Run the workload under *vfs* until done or crashed: ``(acked, issued)``.

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


def _verify_recovery(
    directory: str,
    ops: list[tuple],
    digests: list[str],
    acked: int,
    issued: int,
    context: str,
    report: TortureReport,
) -> None:
    """Reopen *directory* under the real VFS and check the three invariants."""
    from ..serve.server import PreferenceServer

    try:
        recovered, _ = PreferenceServer.open(directory, initial=base_db(), sync=True)
    except Exception as err:  # noqa: BLE001 - any exception is a failed recovery
        report.failures.append(
            f"{context}: recovery raised {type(err).__name__}: {err}"
        )
        return
    try:
        digest = recovered.state_digest()
        lsn = recovered.wal.lsn
    finally:
        recovered.close()
    issued = min(issued, len(digests) - 1)
    prefixes = [p for p in range(acked, issued + 1) if digests[p] == digest]
    if prefixes:
        # Every op but ``checkpoint`` appends one WAL record.
        expected = {sum(op[0] != "checkpoint" for op in ops[:p]) for p in prefixes}
        if lsn not in expected:
            report.failures.append(
                f"{context}: recovered LSN {lsn}, but prefix {prefixes} "
                f"appended {sorted(expected)} records"
            )
        return
    try:
        prefix = digests.index(digest)
    except ValueError:
        prefix = None
    if prefix is None:
        report.failures.append(
            f"{context}: recovered state matches no prefix of the issued "
            f"sequence (acked={acked}, issued={issued})"
        )
    elif prefix < acked:
        report.failures.append(
            f"{context}: acknowledged op lost — recovered prefix {prefix} "
            f"< acked {acked}"
        )
    else:
        report.failures.append(
            f"{context}: recovered prefix {prefix} is beyond issued {issued} "
            "(recovery invented state)"
        )


def _fresh_dir(base_dir: str, name: str) -> str:
    path = os.path.join(base_dir, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def inprocess_round(
    base_dir: str, seed: int, round_index: int, ops_count: int, report: TortureReport
) -> None:
    """One full sweep: inject a fault at *every* point of one seeded workload."""
    ops = scripted_ops(seed + round_index, ops_count)
    digests = oracle_digests(ops)

    probe = FaultyVFS()
    probe_dir = _fresh_dir(base_dir, f"probe-{round_index}")
    acked, _ = _run_workload(probe_dir, ops, probe)
    shutil.rmtree(probe_dir, ignore_errors=True)
    if acked != len(ops):
        report.failures.append(
            f"round {round_index}: probe run crashed without injection "
            f"({acked}/{len(ops)} ops)"
        )
        return

    for step, (op_type, _path) in enumerate(probe.ops):
        kinds = KINDS_BY_OP[op_type]
        kind = kinds[(round_index + step) % len(kinds)]
        vfs = FaultyVFS(VfsFault(step, kind))
        crash_dir = _fresh_dir(base_dir, f"crash-{round_index}-{step}")
        acked, issued = _run_workload(crash_dir, ops, vfs)
        context = f"round {round_index} step {step} ({kind} at {op_type})"
        if not vfs.fired:
            report.failures.append(f"{context}: scripted fault never fired")
        else:
            vfs.power_cut()
            report.crash_points += 1
            report.kind_counts[kind] = report.kind_counts.get(kind, 0) + 1
            _verify_recovery(crash_dir, ops, digests, acked, issued, context, report)
        shutil.rmtree(crash_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Subprocess SIGKILL rounds
# ---------------------------------------------------------------------------


def _child_main(argv: list[str]) -> int:
    """``--child`` entry: run the workload durably, acking each op on stdout."""
    from ..serve.server import PreferenceServer

    options = dict(zip(argv[::2], argv[1::2]))
    directory = options["--dir"]
    seed = int(options["--seed"])
    count = int(options["--count"])
    ops = scripted_ops(seed, count)
    server, _ = PreferenceServer.open(directory, initial=base_db(), sync=True)
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
    base_dir: str, seed: int, round_index: int, ops_count: int, report: TortureReport
) -> None:
    """SIGKILL a real child mid-workload; recovery must keep every acked op."""
    ops = scripted_ops(seed + round_index, ops_count)
    digests = oracle_digests(ops)
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
    report.sigkill_rounds += 1
    context = f"sigkill round {round_index} (killed after {acked} acks)"
    if killed:
        report.sigkill_kills += 1
    elif not done:
        report.failures.append(
            f"{context}: child died on its own: "
            + ("; ".join(noise[-3:]) if noise else f"exit {proc.returncode}")
        )
        shutil.rmtree(child_dir, ignore_errors=True)
        return
    issued = acked + 1 if killed else acked
    _verify_recovery(child_dir, ops, digests, acked, issued, context, report)
    shutil.rmtree(child_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Mutation self-check and the top-level loop
# ---------------------------------------------------------------------------

#: Workload guaranteed to put row inserts in the WAL, so a lossy replay
#: path must lose acknowledged data at some crash point.
_MUTATION_OPS = [
    ("pref.add", "alice", "d1"),
    ("row.insert", 900_901),
    ("row.insert", 900_902),
    ("pref.add", "bob", "y2000"),
]


def mutation_self_check(base_dir: str) -> bool:
    """Break replay on purpose; ``True`` when the harness caught it.

    Temporarily replaces the server's ``row.insert`` redo with a no-op —
    exactly the "silent row loss" bug the narrowed replay handler guards
    against — and sweeps every crash point of a small workload.  A harness
    that still reports success would prove nothing; this keeps it honest.
    """
    from ..serve.server import PreferenceServer

    digests = oracle_digests(_MUTATION_OPS)
    probe = FaultyVFS()
    probe_dir = _fresh_dir(base_dir, "mutation-probe")
    _run_workload(probe_dir, _MUTATION_OPS, probe)
    shutil.rmtree(probe_dir, ignore_errors=True)

    original = PreferenceServer._replay_row_insert

    def lossy(self, payload):  # drops every redone row on the floor
        return None

    shadow = TortureReport(seed=0, rounds=1)
    PreferenceServer._replay_row_insert = lossy
    try:
        for step, (op_type, _path) in enumerate(probe.ops):
            kind = KINDS_BY_OP[op_type][step % len(KINDS_BY_OP[op_type])]
            vfs = FaultyVFS(VfsFault(step, kind))
            crash_dir = _fresh_dir(base_dir, f"mutation-{step}")
            acked, issued = _run_workload(crash_dir, _MUTATION_OPS, vfs)
            vfs.power_cut()
            _verify_recovery(
                crash_dir,
                _MUTATION_OPS,
                digests,
                acked,
                issued,
                f"mutation step {step}",
                shadow,
            )
            shutil.rmtree(crash_dir, ignore_errors=True)
    finally:
        PreferenceServer._replay_row_insert = original
    return bool(shadow.failures)


def run_crash_torture(
    seed: int = 0,
    rounds: int = 10,
    *,
    ops: int = 18,
    sigkill_rounds: int | None = None,
    mutation_check: bool = True,
    directory: str | None = None,
) -> TortureReport:
    """The full torture suite: in-process sweeps + SIGKILL rounds + self-check.

    Each of the *rounds* in-process rounds generates a fresh seeded workload
    of *ops* mutations and injects one fault at **every** injectable point
    it performs (fault kinds rotate so all of :data:`FAULT_KINDS` are
    exercised).  *sigkill_rounds* (default ``max(1, rounds // 5)``) real
    child processes are SIGKILLed mid-workload.  Every crash must recover a
    digest-verified prefix; see the module docstring for the invariants.
    """
    report = TortureReport(seed=seed, rounds=rounds)
    if sigkill_rounds is None:
        sigkill_rounds = max(1, rounds // 5)
    own_dir = directory is None
    base_dir = directory or tempfile.mkdtemp(prefix="repro-crash-torture-")
    try:
        for round_index in range(rounds):
            inprocess_round(base_dir, seed, round_index, ops, report)
        for round_index in range(sigkill_rounds):
            sigkill_round(base_dir, seed, round_index, ops, report)
        if mutation_check:
            report.mutation_detected = mutation_self_check(base_dir)
    finally:
        if own_dir:
            shutil.rmtree(base_dir, ignore_errors=True)
    return report


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        sys.exit(_child_main(sys.argv[2:]))
    sys.exit(0 if run_crash_torture().ok else 1)
