"""Unit tests for the virtual machine's clocks and charging semantics."""

import pytest

from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.params import STAMPEDE2
from repro.vmpi.machine import VirtualMachine


class TestCharging:
    def test_flops_advance_only_that_rank(self):
        vm = VirtualMachine(4)
        vm.charge_flops(2, 100, "work")
        assert vm.clock_of(2) == pytest.approx(100)  # unit gamma
        assert vm.clock_of(0) == 0
        assert vm.ledger_of(2).total.flops == 100

    def test_collective_synchronizes_group(self):
        vm = VirtualMachine(4)
        vm.charge_flops(0, 100, "work")    # rank 0 is behind by 100s of work
        vm.charge_comm_group([0, 1], CollectiveCost(2, 10), "coll")
        # Both ranks jump to max(clock)=100, then add 2*1 + 10*1 = 12.
        assert vm.clock_of(0) == pytest.approx(112)
        assert vm.clock_of(1) == pytest.approx(112)
        assert vm.clock_of(2) == 0

    def test_collective_charges_every_member(self):
        vm = VirtualMachine(3)
        vm.charge_comm_group([0, 1, 2], CollectiveCost(4, 7), "c")
        for r in range(3):
            assert vm.ledger_of(r).total.messages == 4
            assert vm.ledger_of(r).total.words == 7

    def test_barrier_aligns_clocks_without_charges(self):
        vm = VirtualMachine(3)
        vm.charge_flops(0, 50, "w")
        vm.barrier()
        assert all(vm.clock_of(r) == 50 for r in range(3))
        assert vm.ledger_of(1).total.flops == 0


class TestMachineRates:
    def test_machine_rates_applied(self):
        vm = VirtualMachine(2, STAMPEDE2)
        params = STAMPEDE2.cost_params()
        vm.charge_comm_group([0, 1], CollectiveCost(3, 1000), "c")
        expected = params.alpha * 3 + params.beta * 1000
        assert vm.clock_of(0) == pytest.approx(expected)

    def test_elapsed_is_max_clock(self):
        vm = VirtualMachine(3)
        vm.charge_flops(1, 42, "w")
        assert vm.elapsed == pytest.approx(42)


class TestReportAndReset:
    def test_report_shapes(self):
        vm = VirtualMachine(4)
        vm.charge_flops(0, 10, "a")
        rep = vm.report()
        assert rep.num_ranks == 4
        assert rep.max_cost.flops == 10
        assert rep.critical_path_time == pytest.approx(10)

    def test_reset(self):
        vm = VirtualMachine(2)
        vm.charge_flops(0, 10, "a")
        vm.reset()
        assert vm.elapsed == 0
        assert vm.report().max_cost.flops == 0

    def test_reset_clears_phase_attribution(self):
        vm = VirtualMachine(2)
        vm.charge_flops(0, 10, "a")
        vm.charge_comm_group([0, 1], CollectiveCost(1, 4), "b")
        vm.reset()
        assert vm.report().phase_max == {}
        assert vm.ledger_of(0).phases == {}

    def test_reset_clears_trace_events(self):
        # Regression: reset() used to leave stale TraceEvents behind, so a
        # reused traced machine reported the previous run's timeline too.
        vm = VirtualMachine(2, trace=True)
        vm.charge_flops(0, 10, "a")
        vm.charge_comm_group([0, 1], CollectiveCost(2, 8), "b")
        assert len(vm.events) > 0
        vm.reset()
        assert vm.events == []
        vm.charge_flops(1, 5, "c")
        assert len(vm.events) == 1 and vm.events[0].phase == "c"

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            VirtualMachine(0)
