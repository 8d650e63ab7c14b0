"""Network chaos: the serving stack must stay exact across a hostile wire.

``python -m repro chaos --scenario network`` runs three phases against a
real :class:`~repro.serve.net.server.NetServer` (real sockets, real event
loop), all seeded and deterministic.  The first two drive the shared op
model (:mod:`repro.resilience.opmodel`):

* **Conformance cells** (:func:`run_network_chaos`, phase 1) — each cell
  connects a fresh :class:`~repro.serve.net.client.PreferenceClient` whose
  *first* connection suffers one seeded network fault (connection dropped
  at accept, dropped or stalled or torn mid-read, response dropped or torn
  mid-write, abrupt close) while the model's ops churn the server's
  preferences and rows between cells.  The model's read verdict judges
  each cell: a query that completes must digest-match the **reference
  oracle evaluated server-side on the same snapshot** (``oracle=True``)
  *and* survive the client-side digest recomputation; a query that cannot
  complete must fail with a typed resilience error.  Silently wrong rows —
  a torn frame decoding into plausible JSON — are the one forbidden
  outcome.
* **Kill + recovery** (phase 2) — a client writes the model's ops over
  the wire to a durable server; the server is then killed with no drain,
  no flush, no close (the event-loop analogue of SIGKILL) and recovered
  with :meth:`~repro.serve.server.PreferenceServer.open`.  The model's
  recovery verdict must hold: the recovered state is the oracle state of
  every acknowledged write, nothing lost, duplicated or invented, and the
  WAL's LSN counts them.  The WAL append is the commit point, so an ack
  the server sent before it is data loss.
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
import tempfile
import threading
import time
from itertools import islice

from ...errors import Overloaded, ReproError, ResilienceError
from ...resilience.faults import FaultPlan, FaultSpec
from ...resilience.opmodel import (
    Cell,
    Report,
    advance,
    apply_op,
    judge_read,
    op_stream,
    oracle_digests,
    verify_recovery,
)
from ...resilience.retry import RetryBudget, RetryPolicy
from .client import PreferenceClient
from .server import NetServer, namespaced, serve_in_thread

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
) -> Report:
    """Run all three network chaos phases; see the module docstring."""
    report = Report("network chaos", f"seed={seed} scale={scale}")
    _conformance_phase(report, seed, scale, cells)
    _kill_recovery_phase(report, seed, scale, kill_writes, directory)
    _overload_phase(report, overload_clients)
    return report


# ---------------------------------------------------------------------------
# Phase 1: conformance under wire faults
# ---------------------------------------------------------------------------


def _conformance_phase(report: Report, seed: int, scale: float, cells: int) -> None:
    from ...workloads.imdb import generate_imdb
    from ..server import PreferenceServer

    server = PreferenceServer(generate_imdb(scale=scale, seed=seed))
    users = [f"u{i}" for i in range(4)]
    keys = [namespaced("public", user) for user in users]
    stream = op_stream(seed, keys)
    faults = _OneShotFaults()
    net = NetServer(server, fault_factory=faults, tenant_quota=None)
    handle = serve_in_thread(net)
    try:
        for index in range(cells):
            try:
                # Churn before each cell so the cells' snapshots differ.
                advance(server, stream, keys)
            except ReproError as err:
                report.errors.append(f"churn write failed: {err!r}")
                break
            user = users[index % len(users)]
            fault = FAULT_KINDS[index % len(FAULT_KINDS)]
            plan = _fault_plan(fault, seed * 7919 + index)
            faults.arm(plan)
            client = PreferenceClient(
                "127.0.0.1",
                handle.port,
                timeout=10.0,
                deadline_s=30.0,
                retry=RetryPolicy(attempts=4, base_delay=0.002, jitter=0.5, seed=index),
            )

            def read():
                reply = client.query(user, oracle=True)
                return reply["digest"], reply["oracle_digest"]

            cell = Cell(fault, user)
            try:
                # Typed failure after retries is degraded but within contract.
                judge_read(cell, read, (ResilienceError,))
            finally:
                report.count("retries", client.retries)
                client.close()
                faults.arm(None)
            injections = _injections(plan)
            report.count("injections", injections)
            if plan is not None and not injections:
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


# ---------------------------------------------------------------------------
# Phase 2: kill + recovery of acknowledged writes
# ---------------------------------------------------------------------------


def _kill_recovery_phase(
    report: Report, seed: int, scale: float, writes: int, directory: str | None
) -> None:
    from ...workloads.imdb import generate_imdb
    from ..server import PreferenceServer

    users = [f"w{i}" for i in range(4)]
    ops = list(islice(op_stream(seed, users), writes))
    # The same ops as the server stores them, each user in its tenant.
    stored = list(islice(op_stream(seed, [namespaced("public", u) for u in users]), writes))
    digests = oracle_digests(stored, generate_imdb(scale=scale, seed=seed))
    with tempfile.TemporaryDirectory(prefix="repro-net-kill-", dir=directory) as tmp:
        origin = os.path.join(tmp, "origin")
        server, _ = PreferenceServer.open(
            origin, initial=generate_imdb(scale=scale, seed=seed), sync=True
        )
        handle = serve_in_thread(NetServer(server, tenant_quota=None))
        acked = issued = 0
        try:
            client = PreferenceClient("127.0.0.1", handle.port, deadline_s=30.0)
            try:
                for op in ops:
                    issued = acked + 1
                    apply_op(client, op)
                    # The response frame arrived: this write is acknowledged
                    # and must survive any crash from this instant on.
                    acked = issued
            except ReproError as err:
                report.errors.append(f"kill+recovery write {issued} failed: {err!r}")
            finally:
                client.close()
        finally:
            # The kill: no drain, no WAL close, no checkpoint — recovery
            # gets whatever the commit discipline made durable.
            handle.abort()
        report.counts["write_acks"] = acked
        failure = verify_recovery(origin, stored, digests, acked, issued)
        if failure:
            report.errors.append(f"kill+recovery: {failure}")


# ---------------------------------------------------------------------------
# Phase 3: overload sheds typed, hints are actionable
# ---------------------------------------------------------------------------


def _overload_phase(report: Report, clients: int) -> None:
    from ..server import PreferenceServer

    # Only slow pings are sent: the server needs no data.
    net = NetServer(
        PreferenceServer(),
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
        served, shed = outcomes.count("served"), outcomes.count("shed")
        report.counts.update(overload_served=served, overload_shed=shed)
        for verdict in outcomes:
            if verdict.startswith("untyped:") or verdict.startswith("shed-without-hint"):
                report.errors.append(f"overload outcome: {verdict}")
        if served == 0:
            report.errors.append("overload phase served nothing")
        if shed == 0:
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
