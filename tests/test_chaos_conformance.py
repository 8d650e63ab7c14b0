"""Chaos conformance: faulted strategies match the oracle or fail typed."""

import pytest

from repro.errors import ExecutionError
from repro.resilience import FaultPlan
from repro.resilience.chaos import (
    ChaosScenario,
    builtin_scenarios,
    run_chaos,
    timeout_smoke,
)


class TestScenarioCatalog:
    def test_covers_every_instrumented_site_family(self):
        names = {scenario.name for scenario in builtin_scenarios()}
        assert names == {
            "transient-io",
            "transient-dispatch",
            "strategy-crash",
            "slow-io",
            "score-corruption",
            "flaky-mix",
        }

    def test_build_returns_fresh_plans(self):
        scenario = builtin_scenarios()[0]
        assert scenario.build(1) is not scenario.build(1)


@pytest.fixture(scope="module")
def report():
    """One small but complete chaos run shared by the assertions below."""
    return run_chaos(seed=42, scale=0.0005, strategies=("gbu", "reference"))


class TestConformance:
    def test_every_cell_conformant(self, report):
        assert report.ok, report.describe()

    def test_all_scenarios_covered(self, report):
        scenarios = len(builtin_scenarios())
        # 3 IMDB queries × scenarios × 2 strategies.
        assert len(report.cells) == 3 * scenarios * 2

    def test_disruptive_scenarios_actually_disrupt(self, report):
        typed = [c for c in report.cells if c.outcome.startswith("typed-error:")]
        assert typed, "no cell saw a typed failure — faults not firing?"
        assert all(
            c.outcome == "match" or c.outcome.startswith("typed-error:")
            for c in report.cells
        )

    def test_benign_latency_never_fails(self, report):
        slow = [c for c in report.cells if c.scenario == "slow-io"]
        assert all(c.ok and c.outcome == "match" for c in slow)

    def test_describe_summarizes_verdicts(self, report):
        text = report.describe()
        assert "seed=42" in text
        assert "[PASS]" in text
        assert text.strip().endswith("OK")

    def test_failures_listed_when_a_cell_breaks(self, report):
        import copy

        broken = copy.deepcopy(report)
        broken.cells[0].ok = False
        broken.cells[0].outcome = "silent-mismatch"
        assert not broken.ok
        assert "FAIL" in broken.describe()

    def test_same_seed_reproduces_outcomes(self, report):
        scenario = next(s for s in builtin_scenarios() if s.name == "flaky-mix")
        again = run_chaos(
            seed=42, scale=0.0005, scenarios=[scenario], strategies=("gbu",)
        )
        wanted = [
            (c.scenario, c.query, c.strategy, c.outcome)
            for c in report.cells
            if c.scenario == "flaky-mix" and c.strategy == "gbu"
        ]
        got = [
            (c.scenario, c.query, c.strategy, c.outcome)
            for c in again.cells
        ]
        assert got == wanted


class TestTimeoutSmoke:
    def test_expired_deadline_raises_not_hangs(self):
        outcome = timeout_smoke(scale=0.0005)
        assert outcome.ok, outcome.message
        assert "OK" in outcome.message


class TestCustomScenario:
    def test_user_defined_scenario_runs(self):
        scenario = ChaosScenario(
            "my-transient",
            "one transient page-read failure",
            lambda seed: FaultPlan.transient("iosim.scan", times=1, seed=seed),
        )
        report = run_chaos(
            seed=1, scale=0.0005, scenarios=[scenario], strategies=("gbu",)
        )
        assert report.ok, report.describe()

    def test_typed_error_nothing_injected_fails_the_cell(self, monkeypatch):
        # A strategy bug surfaces as a typed ExecutionError, but the plan's
        # only rule targets a site no query visits: nothing explains it.
        import repro.pexec.engine as engine_module

        def broken(*args, **kwargs):
            raise ExecutionError("strategy bug")

        monkeypatch.setattr(engine_module, "execute_gbu", broken)
        scenario = ChaosScenario(
            "never-fires",
            "a transient rule on a site no query visits",
            lambda seed: FaultPlan.transient("no.such.site", seed=seed),
        )
        report = run_chaos(
            seed=1, scale=0.0005, scenarios=[scenario], strategies=("gbu",)
        )
        assert not report.ok
        assert report.failures
        assert {c.outcome for c in report.failures} == {
            "unexplained-error:ExecutionError"
        }
