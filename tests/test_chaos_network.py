"""The network chaos suite at test scale: every phase green, digests exact."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.opmodel import Report
from repro.serve.net import chaos
from repro.serve.net.chaos import FAULT_KINDS, _fault_plan, run_network_chaos
from repro.serve.net.client import PreferenceClient
from repro.serve.net.server import NetServer
from repro.serve.server import PreferenceServer


@pytest.mark.parametrize("seed", [42, 7])
def test_network_chaos_suite_passes(seed):
    report = run_network_chaos(
        seed=seed, scale=0.0005, cells=8, kill_writes=4, overload_clients=4
    )
    assert report.ok, report.describe()
    assert report.errors == []
    assert len(report.cells) == 8
    # Faulted cells either match the server-side oracle exactly or fail
    # with a typed error; nothing escapes untyped.
    for cell in report.cells:
        assert cell.outcome == "exact" or cell.outcome.startswith("typed-"), cell
    # Every faulted cell's plan fired (a cell whose plan did not fails as
    # not-injected) and fired once: `none` has no plan, the rest times=1.
    assert report.counts["injections"] == sum(c.label != "none" for c in report.cells)
    # Some cells must have survived to an exact digest match despite faults.
    assert sum(1 for c in report.cells if c.outcome == "exact") >= 1
    # Every write was acknowledged and recovery verified them (an error
    # otherwise).
    assert report.counts["write_acks"] == 4
    # Overload: the server stayed up, shed typed, and served someone.
    assert report.counts["overload_served"] >= 1
    assert report.counts["overload_shed"] >= 1
    assert "network chaos" in report.describe()


def test_chaos_covers_every_fault_kind():
    report = run_network_chaos(
        seed=3, scale=0.0005, cells=len(FAULT_KINDS), kill_writes=2,
        overload_clients=4,
    )
    assert report.ok, report.describe()
    exercised = {cell.label for cell in report.cells}
    assert exercised == set(FAULT_KINDS)


def test_a_failing_write_fails_the_run(monkeypatch):
    # The phase-1 churn writes to the server directly and phase 2 writes
    # over the wire; neither may swallow a write error by its message.
    def clash(self, table, values, **kw):
        raise ReproError(f"duplicate primary key {tuple(values[:1])} in {table}")

    report = Report("network chaos", "phases 1 and 2")
    with monkeypatch.context() as patch:
        patch.setattr(PreferenceServer, "insert", clash)
        chaos._conformance_phase(report, seed=42, scale=0.0005, cells=8)
    with monkeypatch.context() as patch:
        patch.setattr(PreferenceClient, "insert", clash)
        chaos._kill_recovery_phase(report, seed=42, scale=0.0005, writes=8, directory=None)
    assert not report.ok
    assert any(e.startswith("churn write failed") for e in report.errors), report.errors
    assert any(e.startswith("kill+recovery write") for e in report.errors), report.errors


def test_recovery_that_drops_a_write_fails_the_kill_phase(monkeypatch):
    # The shared recovery verdict sees lost state, not just missing names:
    # a replay that drops every redone row fails phase 2.
    monkeypatch.setattr(PreferenceServer, "_replay_row_insert", lambda self, payload: None)
    report = Report("network chaos", "phase 2")
    chaos._kill_recovery_phase(report, seed=42, scale=0.0005, writes=16, directory=None)
    assert any("kill+recovery: recovered oracle prefix" in e for e in report.errors)


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
    report = Report("network chaos", "phase 1")
    chaos._conformance_phase(report, seed=5, scale=0.0005, cells=2)
    unfaulted, faulted = report.cells
    assert unfaulted.ok and report.counts["injections"] == 0
    assert not faulted.ok
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
