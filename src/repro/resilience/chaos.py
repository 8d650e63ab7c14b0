"""Seeded chaos conformance suite: ``python -m repro chaos``.

The resilience contract this suite enforces: under fault injection, every
execution strategy either produces **exactly** the answer the unfaulted
reference oracle produces, or fails with a typed resilience error that an
injection explains — a silently wrong answer is the one outcome that is
never acceptable, and an error nothing injected is a bug, not resilience.

Everything is deterministic: the dataset generator, the workload queries
and the :class:`~repro.resilience.FaultPlan` are all seeded, so a failing
``(scenario, query, strategy, seed)`` cell reproduces exactly.

This module imports the execution stack and workloads, so it is *not*
re-exported from :mod:`repro.resilience` (which stays import-light); the
CLI imports it lazily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import QueryTimeout, ReproError, ResilienceError
from .faults import FaultPlan, FaultSpec
from .guard import QueryGuard


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault schedule to subject every (query, strategy) cell to.

    ``build(seed)`` returns a fresh :class:`FaultPlan` — fresh per cell,
    because plans carry injection bookkeeping.  A latency-only scenario
    must not change the answer at all; the others are expected to fail
    typed wherever one of their faults fires.
    """

    name: str
    description: str
    build: Callable[[int], FaultPlan]


def builtin_scenarios() -> list[ChaosScenario]:
    """The built-in fault schedules, covering every instrumented site."""
    return [
        ChaosScenario(
            "transient-io",
            "one transient failure on the first simulated page read",
            lambda seed: FaultPlan.transient("iosim.scan", times=1, seed=seed),
        ),
        ChaosScenario(
            "transient-dispatch",
            "one transient failure in native-engine operator dispatch",
            lambda seed: FaultPlan.transient("native.dispatch", times=1, seed=seed),
        ),
        ChaosScenario(
            "strategy-crash",
            "one transient failure at a strategy operator boundary",
            lambda seed: FaultPlan.transient("strategy.*", times=1, seed=seed),
        ),
        ChaosScenario(
            "slow-io",
            "2ms of injected latency spread over early page reads (benign)",
            lambda seed: FaultPlan(
                [FaultSpec("iosim.scan", "latency", delay=0.0005, times=4)], seed=seed
            ),
        ),
        ChaosScenario(
            "score-corruption",
            "one score pair corrupted in the result; the integrity gate "
            "must turn it into DataCorruption",
            lambda seed: FaultPlan.corrupting("pexec.scores", times=1, seed=seed),
        ),
        ChaosScenario(
            "flaky-mix",
            "30%-probability transient page-read failures (max 3) plus "
            "occasional latency",
            lambda seed: FaultPlan(
                [
                    FaultSpec("iosim.scan", "transient", probability=0.3, times=3),
                    FaultSpec("iosim.scan", "latency", delay=0.0002, times=2, after=1),
                ],
                seed=seed,
            ),
        ),
    ]


@dataclass
class ChaosCell:
    """Outcome of one (scenario, query, strategy) execution."""

    scenario: str
    query: str
    strategy: str
    outcome: str
    ok: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """All cells of a chaos run plus the verdict."""

    seed: int
    scale: float
    cells: list[ChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[ChaosCell]:
        return [cell for cell in self.cells if not cell.ok]

    def describe(self) -> str:
        lines = [f"chaos run: seed={self.seed} scale={self.scale}"]
        by_scenario: dict[str, list[ChaosCell]] = {}
        for cell in self.cells:
            by_scenario.setdefault(cell.scenario, []).append(cell)
        for scenario, cells in by_scenario.items():
            good = sum(1 for c in cells if c.ok)
            verdict = "PASS" if good == len(cells) else "FAIL"
            outcomes = sorted({c.outcome for c in cells if c.ok})
            lines.append(
                f"  {scenario:<20} {good}/{len(cells)} cells ok  [{verdict}]"
                + (f"  ({', '.join(outcomes)})" if outcomes else "")
            )
        for cell in self.failures:
            lines.append(
                f"  FAIL {cell.scenario} / {cell.query} / {cell.strategy}: "
                f"{cell.outcome} — {cell.detail}"
            )
        total_ok = sum(1 for c in self.cells if c.ok)
        lines.append(
            f"chaos: {total_ok}/{len(self.cells)} cells conformant — "
            + ("OK" if self.ok else "FAILED")
        )
        return "\n".join(lines)


def _triples(result) -> list[tuple]:
    """A result's presented rows as a canonical, order-independent set."""
    presented = result.presented()
    rounded = []
    for row, score, conf in presented.triples():
        rounded.append(
            (
                row,
                None if score is None else round(score, 9),
                round(conf, 9),
            )
        )
    return sorted(rounded, key=repr)


def _explained(err: ReproError, plan: FaultPlan | None) -> bool:
    """Whether an injected fault explains the typed failure *err*.

    Typed is not enough: the failure must be a resilience error, and *plan*
    must have recorded at least one non-latency injection.  Latency alone
    never explains an error, so a latency-only scenario that fails does not
    pass.
    """
    return (
        isinstance(err, ResilienceError)
        and plan is not None
        and any(i.kind != "latency" for i in plan.injections)
    )


def run_chaos(
    seed: int = 42,
    scale: float = 0.001,
    scenarios: list[ChaosScenario] | None = None,
    strategies=None,
    sanitize: bool | None = None,
) -> ChaosReport:
    """Run every scenario × workload query × strategy; return the report.

    A cell is conformant when the faulted run matches the unfaulted oracle
    exactly, or raises a :exc:`~repro.errors.ResilienceError` (an injected
    fault or the integrity gate's :exc:`~repro.errors.DataCorruption`)
    while the plan recorded at least one non-latency injection.  Any other
    typed error is an ``unexplained-error`` cell: nothing injected explains
    it, so it is a bug the suite must not wave through.

    *sanitize* runs the whole sweep under a fresh concurrency sanitizer
    (:mod:`repro.analysis_static.sanitizer`); any SANxxx finding becomes a
    failing ``sanitizer`` cell.  Defaults to the ``REPRO_SANITIZE``
    environment switch, so the CI sanitize job needs no code changes here.
    """
    from ..analysis_static.sanitizer import env_sanitize_enabled, use_sanitizer
    from ..pexec.engine import STRATEGIES
    from ..workloads.imdb import generate_imdb

    if scenarios is None:
        scenarios = builtin_scenarios()
    if strategies is None:
        strategies = STRATEGIES
    db = generate_imdb(scale=scale, seed=seed)
    report = ChaosReport(seed=seed, scale=scale)
    if sanitize is None:
        sanitize = env_sanitize_enabled()
    if sanitize:
        with use_sanitizer() as sanitizer:
            _run_all_cells(report, db, scenarios, strategies, seed)
        for diagnostic in sanitizer.findings:
            report.cells.append(
                ChaosCell(
                    "sanitizer",
                    "-",
                    "-",
                    f"sanitizer:{diagnostic.code}",
                    ok=False,
                    detail=str(diagnostic),
                )
            )
    else:
        _run_all_cells(report, db, scenarios, strategies, seed)
    return report


def _run_all_cells(report, db, scenarios, strategies, seed) -> None:
    from ..workloads.queries import imdb_queries

    for query in imdb_queries():
        session = query.session(db)
        oracle = _triples(session.execute(query.sql, strategy="reference"))
        for scenario in scenarios:
            for strategy in strategies:
                report.cells.append(
                    _cell(session, query, strategy, scenario, seed, oracle)
                )


def _cell(session, query, strategy, scenario, seed, oracle) -> ChaosCell:
    plan = scenario.build(seed)
    cell = ChaosCell(scenario.name, query.name, strategy, "", ok=False)
    try:
        result = session.execute(query.sql, strategy=strategy, faults=plan)
    except ReproError as err:
        if _explained(err, plan):
            cell.outcome = f"typed-error:{type(err).__name__}"
            cell.ok = True
        else:
            cell.outcome = f"unexplained-error:{type(err).__name__}"
            cell.detail = f"no injected fault explains {err!r}"
        return cell
    except Exception as err:  # noqa: BLE001 - untyped escape is the bug we hunt
        cell.outcome = f"untyped-error:{type(err).__name__}"
        cell.detail = repr(err)
        return cell
    if _triples(result) == oracle:
        cell.outcome = "match"
        cell.ok = True
    else:
        cell.outcome = "silent-mismatch"
        cell.detail = (
            f"faulted answer differs from oracle ({len(plan.injections)} "
            "injections performed) without any error"
        )
    return cell


@dataclass
class SmokeOutcome:
    """Result of the timeout smoke test."""

    ok: bool
    message: str


def timeout_smoke(scale: float = 0.001, timeout: float = 0.001) -> SmokeOutcome:
    """A query with a 1ms deadline must raise QueryTimeout, not hang.

    Injected page-read latency (10 × 1ms) guarantees the deadline expires
    mid-query regardless of machine speed, so the assertion is about the
    guard firing, not about the query being slow.
    """
    from ..workloads.imdb import generate_imdb
    from ..workloads.queries import imdb_1

    query = imdb_1()
    session = query.session(generate_imdb(scale=scale, seed=7))
    guard = QueryGuard(timeout=timeout)
    slow = FaultPlan(
        [FaultSpec("iosim.scan", "latency", delay=timeout, times=10)], seed=7
    )
    try:
        session.execute(query.sql, strategy="gbu", guard=guard, faults=slow)
    except QueryTimeout as err:
        return SmokeOutcome(True, f"timeout smoke: OK ({err})")
    except Exception as err:  # noqa: BLE001 - anything else fails the smoke
        return SmokeOutcome(
            False, f"timeout smoke: FAILED — raised {type(err).__name__} ({err})"
        )
    return SmokeOutcome(
        False,
        "timeout smoke: FAILED — query completed despite the expired deadline",
    )
