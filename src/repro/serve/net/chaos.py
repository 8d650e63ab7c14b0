"""Network chaos: the serving stack must stay exact across a hostile wire.

``python -m repro chaos --scenario network`` runs three phases against a
real :class:`~repro.serve.net.server.NetServer` (real sockets, real event
loop), all seeded and deterministic:

* **Conformance cells** (:func:`run_network_chaos`, phase 1) — each cell
  connects a fresh :class:`~repro.serve.net.client.PreferenceClient` whose
  *first* connection suffers one seeded network fault (connection dropped
  at accept, dropped or stalled or torn mid-read, response dropped or torn
  mid-write, abrupt close) while the server's preference state churns
  between cells.  The contract: a query that completes must digest-match
  the **reference oracle evaluated server-side on the same snapshot**
  (``oracle=True``) *and* survive the client-side digest recomputation; a
  query that cannot complete must fail with a typed resilience error.
  Silently wrong rows — a torn frame decoding into plausible JSON — are
  the one forbidden outcome.
* **Kill + recovery** (phase 2) — clients write preferences over the wire
  to a durable server and record every acknowledged write; the server is
  then killed with no drain, no flush, no close (the event-loop analogue
  of SIGKILL) and recovered with
  :meth:`~repro.serve.server.PreferenceServer.open`.  Every acknowledged
  write must be present — the WAL append is the commit point, so an ack
  that did not survive is data loss.
* **Overload shedding** (phase 3) — more concurrent slow requests than a
  tiny server can hold.  Some must complete, the rest must shed *quickly*
  with typed :exc:`~repro.errors.Overloaded` carrying a positive
  ``retry_after`` hint; nothing may hang past its deadline or escape
  untyped.  A final budgeted client must then succeed by honoring the
  hints — the retry path proving the hint is actionable, not decorative.

Like the other chaos fixtures, verdicts are deterministic even though the
socket interleavings are not: each cell is judged against the snapshot its
own query actually served.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from ...core.preference import Preference
from ...engine.expressions import eq
from ...errors import NetworkFault, Overloaded, ReproError, ResilienceError
from ...resilience.faults import FaultPlan, FaultSpec
from ...resilience.retry import RetryBudget, RetryPolicy
from .client import PreferenceClient
from .server import NetServer, serve_in_thread

#: The seeded fault rotation: every cell index maps to one wire failure
#: mode on the cell's first connection (retries get clean connections).
FAULT_KINDS = (
    "none",
    "accept-drop",
    "read-drop",
    "read-stall",
    "read-tear",
    "write-drop",
    "write-tear",
    "close-drop",
)


#: How long a faulted cell waits for its plan to fire before failing.
_INJECTION_WAIT_S = 2.0


def _fault_plan(kind: str, seed: int) -> "FaultPlan | None":
    if kind == "none":
        return None
    if kind == "accept-drop":
        return FaultPlan.transient("net.accept", times=1, seed=seed)
    if kind == "read-drop":
        return FaultPlan.transient("net.read", times=1, seed=seed)
    if kind == "read-stall":
        return FaultPlan(
            [FaultSpec("net.read", "latency", delay=0.05, times=1)], seed=seed
        )
    if kind == "read-tear":
        return FaultPlan.corrupting("net.read", times=1, seed=seed)
    if kind == "write-drop":
        return FaultPlan.transient("net.write", times=1, seed=seed)
    if kind == "write-tear":
        return FaultPlan.corrupting("net.write", times=1, seed=seed)
    return FaultPlan.transient("net.close", times=1, seed=seed)


@dataclass
class NetworkCell:
    """Outcome of one faulted query cell."""

    index: int
    user: str
    fault: str
    outcome: str  # 'exact' | 'typed-<Error>' | failure description
    ok: bool
    retries: int = 0
    detail: str = ""
    #: Faults the cell's plan injected (0 for a ``none`` cell).
    injections: int = 0


@dataclass
class NetworkChaosReport:
    """Everything the network chaos run observed, plus the verdict."""

    seed: int
    scale: float
    cells: list[NetworkCell] = field(default_factory=list)
    write_acks: int = 0
    writes_recovered: int = 0
    overload_served: int = 0
    overload_shed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[NetworkCell]:
        return [cell for cell in self.cells if not cell.ok]

    def describe(self) -> str:
        lines = [f"network chaos: seed={self.seed} scale={self.scale}"]
        by_outcome: dict[str, int] = {}
        for cell in self.cells:
            key = f"{cell.fault} → {cell.outcome}"
            by_outcome[key] = by_outcome.get(key, 0) + 1
        for key in sorted(by_outcome):
            lines.append(f"  {key:<40} {by_outcome[key]}")
        lines.append(
            f"  kill+recovery: {self.writes_recovered}/{self.write_acks} "
            "acknowledged writes survived"
        )
        lines.append(
            f"  overload: {self.overload_served} served, "
            f"{self.overload_shed} shed typed"
        )
        for cell in self.failures:
            lines.append(
                f"  FAIL cell#{cell.index} user={cell.user} fault={cell.fault}: "
                f"{cell.outcome} — {cell.detail}"
            )
        for error in self.errors:
            lines.append(f"  ERROR {error}")
        good = sum(1 for c in self.cells if c.ok)
        lines.append(
            f"network chaos: {good}/{len(self.cells)} cells conformant — "
            + ("OK" if self.ok else "FAILED")
        )
        return "\n".join(lines)


def _pool() -> list[Preference]:
    """WAL-loggable preferences the churn rotates through user buckets."""
    return [
        Preference(f"g_{genre.lower()}", "GENRES", eq("genre", genre), w, 0.9)
        for genre, w in (
            ("Comedy", 0.8), ("Drama", 0.7), ("Action", 0.9), ("Thriller", 0.6)
        )
    ]


class _OneShotFaults:
    """Connection fault factory: arm one plan, first connection takes it.

    Retry connections (and the churn writer's) get no plan, so every cell's
    designated fault lands exactly once and its label stays honest.
    """

    def __init__(self) -> None:
        self._plan: FaultPlan | None = None
        self._lock = threading.Lock()

    def arm(self, plan: "FaultPlan | None") -> None:
        with self._lock:
            self._plan = plan

    def __call__(self, index: int) -> "FaultPlan | None":
        with self._lock:
            plan, self._plan = self._plan, None
            return plan


def run_network_chaos(
    seed: int = 42,
    scale: float = 0.0005,
    cells: int = 24,
    kill_writes: int = 16,
    overload_clients: int = 8,
    directory: str | None = None,
) -> NetworkChaosReport:
    """Run all three network chaos phases; see the module docstring."""
    report = NetworkChaosReport(seed=seed, scale=scale)
    _conformance_phase(report, cells)
    _kill_recovery_phase(report, kill_writes, directory)
    _overload_phase(report, overload_clients)
    return report


# ---------------------------------------------------------------------------
# Phase 1: conformance under wire faults
# ---------------------------------------------------------------------------


def _conformance_phase(report: NetworkChaosReport, cells: int) -> None:
    from ...workloads.imdb import generate_imdb
    from ..server import PreferenceServer

    rng = random.Random(report.seed)
    server = PreferenceServer(generate_imdb(scale=report.scale, seed=report.seed))
    users = [f"u{i}" for i in range(4)]
    pool = _pool()
    for user in users:
        # Every user keeps one base preference so PREFERRING is never empty.
        server.add_preference(f"public::{user}", pool[0])
    faults = _OneShotFaults()
    net = NetServer(server, fault_factory=faults, tenant_quota=None)
    handle = serve_in_thread(net)
    try:
        for index in range(cells):
            user = users[index % len(users)]
            fault = FAULT_KINDS[index % len(FAULT_KINDS)]
            plan = _fault_plan(fault, report.seed * 7919 + index)
            faults.arm(plan)
            client = PreferenceClient(
                "127.0.0.1",
                handle.port,
                timeout=10.0,
                deadline_s=30.0,
                retry=RetryPolicy(attempts=4, base_delay=0.002, jitter=0.5, seed=index),
            )
            cell = NetworkCell(index, user, fault, outcome="exact", ok=True)
            try:
                result = client.query(user, oracle=True)
                if result.get("oracle_digest") != result.get("digest"):
                    cell.outcome, cell.ok = "oracle-mismatch", False
                    cell.detail = (
                        f"served digest {result.get('digest', '')[:12]} != "
                        f"oracle {result.get('oracle_digest', '')[:12]} "
                        "on the same snapshot"
                    )
            except (NetworkFault, ResilienceError) as err:
                # Typed failure after retries: degraded but within contract.
                cell.outcome, cell.detail = f"typed-{type(err).__name__}", str(err)
            except Exception as err:  # noqa: BLE001 - untyped escape fails the run
                cell.outcome, cell.ok, cell.detail = "untyped-escape", False, repr(err)
            finally:
                cell.retries = client.retries
                client.close()
                faults.arm(None)
                # Churn between cells so later snapshots genuinely differ.
                _churn(server, rng, users, pool)
            cell.injections = _injections(plan)
            if plan is not None and not cell.injections:
                # A misspelled site, in the plan or at the call site,
                # never fires: the cell would pass without its fault.
                cell.detail = f"{plan!r} injected nothing (query: {cell.outcome})"
                cell.outcome, cell.ok = "not-injected", False
            report.cells.append(cell)
    finally:
        handle.stop()


def _injections(plan: "FaultPlan | None") -> int:
    """How many faults *plan* injected, waiting briefly for a pending one.

    A ``net.close`` fault fires only after the client hangs up, so the
    count may lag the client call by one event-loop turn.
    """
    if plan is None:
        return 0
    deadline = time.monotonic() + _INJECTION_WAIT_S
    while not plan.injections and time.monotonic() < deadline:
        time.sleep(0.001)
    return len(plan.injections)


def _churn(server, rng: random.Random, users: list[str], pool: list[Preference]) -> None:
    user = f"public::{rng.choice(users)}"
    pref = rng.choice(pool[1:])
    try:
        if rng.random() < 0.5:
            server.add_preference(user, pref)
        else:
            server.remove_preference(user, pref.name)
    except ReproError as err:
        if "duplicate" not in str(err) and "already" not in str(err):
            raise


# ---------------------------------------------------------------------------
# Phase 2: kill + recovery of acknowledged writes
# ---------------------------------------------------------------------------


def _kill_recovery_phase(
    report: NetworkChaosReport, writes: int, directory: str | None
) -> None:
    import tempfile

    from ...workloads.imdb import generate_imdb
    from ..server import PreferenceServer

    with tempfile.TemporaryDirectory(prefix="repro-net-kill-", dir=directory) as tmp:
        origin = os.path.join(tmp, "origin")
        server, _ = PreferenceServer.open(
            origin,
            initial=generate_imdb(scale=report.scale, seed=report.seed),
            sync=True,
        )
        net = NetServer(server, tenant_quota=None)
        handle = serve_in_thread(net)
        acked: list[tuple[str, str]] = []
        try:
            client = PreferenceClient("127.0.0.1", handle.port, deadline_s=30.0)
            genres = ("Comedy", "Drama", "Action", "Thriller")
            for i in range(writes):
                user = f"w{i % 4}"
                name = f"net_{i}"
                pref = Preference(name, "GENRES", eq("genre", genres[i % 4]), 0.8, 0.9)
                outcome = client.add_preference(user, pref)
                if outcome.get("added"):
                    # The response frame arrived: this write is acknowledged
                    # and must survive any crash from this instant on.
                    acked.append((user, name))
            client.close()
        finally:
            # The kill: no drain, no WAL close, no checkpoint — recovery
            # gets whatever the commit discipline made durable.
            handle.abort()
        report.write_acks = len(acked)
        recovered, _replay = PreferenceServer.open(origin)
        try:
            for user, name in acked:
                names = {
                    p.name for p in recovered.store.preferences_of(f"public::{user}")
                }
                if name in names:
                    report.writes_recovered += 1
                else:
                    report.errors.append(
                        f"kill+recovery lost acknowledged write {name!r} "
                        f"for user {user!r}"
                    )
        finally:
            recovered.close()
        if not acked:
            report.errors.append("kill+recovery phase acknowledged no writes")


# ---------------------------------------------------------------------------
# Phase 3: overload sheds typed, hints are actionable
# ---------------------------------------------------------------------------


def _overload_phase(report: NetworkChaosReport, clients: int) -> None:
    from ...workloads.imdb import generate_imdb
    from ..server import PreferenceServer

    server = PreferenceServer(generate_imdb(scale=report.scale, seed=report.seed))
    net = NetServer(
        server,
        workers=2,
        queue_limit=0,
        tenant_quota=None,
        test_ops=True,
    )
    handle = serve_in_thread(net)
    outcomes: list[str] = []
    lock = threading.Lock()

    def slam() -> None:
        client = PreferenceClient(
            "127.0.0.1",
            handle.port,
            deadline_s=10.0,
            retry=RetryPolicy(attempts=1),
        )
        try:
            client.ping(delay_ms=120)
            verdict = "served"
        except Overloaded as err:
            if err.retry_after is None or err.retry_after <= 0:
                verdict = f"shed-without-hint({err.reason})"
            else:
                verdict = "shed"
        except ResilienceError as err:
            verdict = f"typed-{type(err).__name__}"
        except Exception as err:  # noqa: BLE001 - untyped escape fails the run
            verdict = f"untyped:{err!r}"
        finally:
            client.close()
        with lock:
            outcomes.append(verdict)

    try:
        threads = [
            threading.Thread(target=slam, daemon=True) for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            if thread.is_alive():
                report.errors.append("overload client hung past its deadline")
        report.overload_served = outcomes.count("served")
        report.overload_shed = outcomes.count("shed")
        for verdict in outcomes:
            if verdict.startswith("untyped:") or verdict.startswith("shed-without-hint"):
                report.errors.append(f"overload outcome: {verdict}")
        if report.overload_served == 0:
            report.errors.append("overload phase served nothing")
        if report.overload_shed == 0:
            report.errors.append(
                "overload phase shed nothing (not actually overloaded?)"
            )
        # The hint must be actionable: a budgeted client that *honors*
        # retry_after gets through once the burst passes.
        patient = PreferenceClient(
            "127.0.0.1",
            handle.port,
            deadline_s=30.0,
            retry=RetryPolicy(attempts=8, base_delay=0.01, jitter=0.5, seed=1),
            budget=RetryBudget(capacity=10.0, refill=0.5),
        )
        try:
            patient.ping(delay_ms=20)
        except ReproError as err:
            report.errors.append(f"hint-honoring client never got through: {err!r}")
        finally:
            patient.close()
    finally:
        handle.stop()
