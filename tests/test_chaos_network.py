"""The network chaos suite at test scale: every phase green, digests exact."""

from __future__ import annotations

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve.net import chaos
from repro.serve.net.chaos import (
    FAULT_KINDS,
    NetworkChaosReport,
    _fault_plan,
    run_network_chaos,
)
from repro.serve.net.server import NetServer


@pytest.mark.parametrize("seed", [42, 7])
def test_network_chaos_suite_passes(seed):
    report = run_network_chaos(
        seed=seed, scale=0.0005, cells=8, kill_writes=4, overload_clients=4
    )
    assert report.ok, report.failures
    assert report.errors == []
    assert len(report.cells) == 8
    # Faulted cells either match the server-side oracle exactly or fail
    # with a typed error; nothing escapes untyped.
    for cell in report.cells:
        assert cell.outcome == "exact" or cell.outcome.startswith("typed-"), cell
        # Every faulted cell's plan fired exactly once; `none` has no plan.
        assert cell.injections == (0 if cell.fault == "none" else 1), cell
    # Some cells must have survived to an exact digest match despite faults.
    assert sum(1 for c in report.cells if c.outcome == "exact") >= 1
    # Every acked write survived the kill and recovery.
    assert report.write_acks == 4
    assert report.writes_recovered == 4
    # Overload: the server stayed up, shed typed, and served someone.
    assert report.overload_served >= 1
    assert report.overload_shed >= 1
    assert "network chaos" in report.describe()


def test_chaos_covers_every_fault_kind():
    report = run_network_chaos(
        seed=3, scale=0.0005, cells=len(FAULT_KINDS), kill_writes=2,
        overload_clients=4,
    )
    assert report.ok, report.failures
    exercised = {cell.fault for cell in report.cells}
    assert exercised == set(FAULT_KINDS)


def _assert_faulted_cell_injects_nothing(monkeypatch, plan_for) -> None:
    """Run a `none` cell and one cell faulted by ``plan_for(seed)``.

    The faulted plan must never fire, so the cell has to fail as
    ``not-injected`` rather than pass without its fault.
    """
    monkeypatch.setattr(
        chaos,
        "_fault_plan",
        lambda kind, seed: None if kind == "none" else plan_for(seed),
    )
    monkeypatch.setattr(chaos, "_INJECTION_WAIT_S", 0.05)
    report = NetworkChaosReport(seed=5, scale=0.0005)
    chaos._conformance_phase(report, cells=2)
    unfaulted, faulted = report.cells
    assert unfaulted.ok and unfaulted.injections == 0
    assert not faulted.ok and faulted.injections == 0
    assert faulted.outcome == "not-injected"
    assert "injected nothing" in faulted.detail
    assert not report.ok


def test_a_fault_plan_that_never_fires_fails_its_cell(monkeypatch):
    # A misspelled site never matches a call site, so the plan injects
    # nothing and the cell would pass without its fault.
    _assert_faulted_cell_injects_nothing(
        monkeypatch, lambda seed: FaultPlan.transient("net.raed", seed=seed)
    )


def test_a_misspelled_fault_spec_site_fails_its_cell(monkeypatch):
    # The same typo spelled through FaultSpec(site=...) in a hand-built plan.
    _assert_faulted_cell_injects_nothing(
        monkeypatch,
        lambda seed: FaultPlan(
            [FaultSpec(site="net.writes", kind="latency", delay=0.01)], seed=seed
        ),
    )


def test_a_misspelled_server_fault_site_fails_its_cell(monkeypatch):
    # The plan is right but the server visits a misspelled site: the
    # accept-drop plan then finds no `net.accept` visit to fire on.
    visit = NetServer._site

    async def misspelled(self, plan, recorder, site):
        await visit(self, plan, recorder, site.replace("net.accept", "net.acept"))

    monkeypatch.setattr(NetServer, "_site", misspelled)
    _assert_faulted_cell_injects_nothing(
        monkeypatch, lambda seed: _fault_plan("accept-drop", seed)
    )


def test_a_misspelled_corruption_check_fails_its_cell(monkeypatch):
    # Torn frames are asked for through plan.corrupts(site), a second way
    # the server names a site; a typo there silences the read-tear plan.
    corrupts = FaultPlan.corrupts
    monkeypatch.setattr(
        FaultPlan,
        "corrupts",
        lambda self, site: corrupts(self, "net.raed" if site == "net.read" else site),
    )
    _assert_faulted_cell_injects_nothing(
        monkeypatch, lambda seed: _fault_plan("read-tear", seed)
    )


def test_fault_plans_map_to_net_sites():
    for kind in FAULT_KINDS:
        plan = _fault_plan(kind, seed=1)
        if kind == "none":
            assert plan is None
        else:
            assert plan is not None
            assert all(spec.site.startswith("net.") for spec in plan.specs)
