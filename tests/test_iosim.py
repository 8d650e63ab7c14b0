"""Unit tests for the simulated I/O cost model."""

from repro.engine.iosim import TUPLES_PER_PAGE, CostModel, pages_for
from repro.resilience import QueryGuard


class TestPagesFor:
    def test_zero(self):
        assert pages_for(0) == 0
        assert pages_for(-5) == 0

    def test_partial_page_rounds_up(self):
        assert pages_for(1) == 1
        assert pages_for(TUPLES_PER_PAGE) == 1
        assert pages_for(TUPLES_PER_PAGE + 1) == 2

    def test_custom_page_size(self):
        assert pages_for(10, tuples_per_page=10) == 1
        assert pages_for(11, tuples_per_page=10) == 2


class TestCostModel:
    def test_scan_accumulates(self):
        cost = CostModel()
        cost.scan(100)
        cost.scan(100)
        assert cost.tuples_scanned == 200
        assert cost.pages_read == 2 * pages_for(100)

    def test_index_probe(self):
        cost = CostModel()
        cost.index_probe(5)
        assert cost.index_lookups == 1
        assert cost.pages_read == 1 + pages_for(5)

    def test_batched_index_probes_charge_like_single_ones(self):
        sizes = [5, 0, 64, 65, 1, 0]
        single, batched = CostModel(guard=QueryGuard()), CostModel(guard=QueryGuard())
        for size in sizes:
            single.index_probe(size)
        batched.index_probes(len(sizes), [s for s in sizes if s])
        assert batched.snapshot() == single.snapshot()
        assert batched.guard.tuples == single.guard.tuples == sum(sizes)

    def test_materialize(self):
        cost = CostModel()
        cost.materialize(1000)
        assert cost.tuples_materialized == 1000
        assert cost.pages_written == pages_for(1000)

    def test_total_io(self):
        cost = CostModel()
        cost.scan(64)
        cost.materialize(64)
        assert cost.total_io == 2

    def test_operator_counter(self):
        cost = CostModel()
        cost.count_operator("join")
        cost.count_operator("join")
        assert cost.operator_calls == {"join": 2}

    def test_reset(self):
        cost = CostModel()
        cost.scan(10)
        cost.count_operator("x")
        cost.reset()
        assert cost.total_io == 0
        assert cost.operator_calls == {}

    def test_snapshot_is_plain_dict(self):
        cost = CostModel()
        cost.scan(64)
        snap = cost.snapshot()
        assert snap["pages_read"] == 1
        assert snap["total_io"] == 1
        cost.scan(64)
        assert snap["pages_read"] == 1  # snapshot is a copy
