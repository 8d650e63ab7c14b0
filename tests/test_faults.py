"""Tests for deterministic fault injection (FaultSpec / FaultPlan)."""

import pytest

from repro.errors import TransientFault
from repro.resilience import NULL_FAULTS, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("net.read", "explode")

    def test_exact_and_prefix_matching(self):
        exact = FaultSpec("net.read")
        assert exact.matches("net.read")
        assert not exact.matches("net.read2")
        prefix = FaultSpec("net.*")
        assert prefix.matches("net.accept")
        assert prefix.matches("net.close")
        assert not prefix.matches("wal.append")


class TestFaultPlan:
    def test_transient_fires_limited_times(self):
        plan = FaultPlan.transient("net.read", times=2)
        for _ in range(2):
            with pytest.raises(TransientFault):
                plan.at("net.read")
        plan.at("net.read")  # budget exhausted: no more failures
        assert len(plan.injections) == 2
        assert all(i.site == "net.read" for i in plan.injections)

    def test_transient_error_is_typed_with_site(self):
        plan = FaultPlan.transient("net.accept")
        with pytest.raises(TransientFault) as excinfo:
            plan.at("net.accept")
        assert excinfo.value.site == "net.accept"

    def test_after_skips_early_hits(self):
        plan = FaultPlan([FaultSpec("s", after=2)])
        plan.at("s")
        plan.at("s")
        with pytest.raises(TransientFault):
            plan.at("s")

    def test_other_sites_untouched(self):
        plan = FaultPlan.transient("net.read")
        plan.at("net.write")
        plan.at("net.close")
        assert plan.injections == []

    def test_latency_calls_injected_sleep(self):
        naps = []
        plan = FaultPlan(
            [FaultSpec("net.write", "latency", delay=0.25, times=3)],
            sleep=naps.append,
        )
        for _ in range(5):
            plan.at("net.write")
        assert naps == [0.25, 0.25, 0.25]

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed: int) -> list[bool]:
            plan = FaultPlan(
                [FaultSpec("s", probability=0.5, times=None)], seed=seed
            )
            pattern = []
            for _ in range(32):
                try:
                    plan.at("s")
                    pattern.append(False)
                except TransientFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert any(firing_pattern(7))  # p=0.5 over 32 draws: some fire...
        assert not all(firing_pattern(7))  # ...and some don't

    def test_corrupts_consumes_its_budget(self):
        plan = FaultPlan.corrupting("net.write")
        assert plan.corrupts("net.write")
        assert not plan.corrupts("net.write")

    def test_pick_is_deterministic_per_seed(self):
        a = FaultPlan(seed=3)
        b = FaultPlan(seed=3)
        assert [a.pick(10) for _ in range(8)] == [b.pick(10) for _ in range(8)]

    def test_reset_rewinds_to_seed_state(self):
        plan = FaultPlan.transient("s", times=1, seed=5)
        with pytest.raises(TransientFault):
            plan.at("s")
        plan.at("s")
        plan.reset()
        assert plan.injections == []
        with pytest.raises(TransientFault):
            plan.at("s")

    def test_null_faults_noop(self):
        NULL_FAULTS.at("net.read")
        assert not NULL_FAULTS.corrupts("net.write")
