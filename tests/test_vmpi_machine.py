"""Unit tests for the virtual machine's clocks and charging semantics."""

import numpy as np
import pytest

from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.ledger import Cost
from repro.costmodel.params import STAMPEDE2
from repro.sched import ScheduleRecorder
from repro.vmpi.machine import ClassBlock, Slabs, VirtualMachine
from repro.vmpi.reference import RecordingMachine


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

    def test_fresh_and_reset_machines_are_one_class_of_zeros(self):
        vm = VirtualMachine(6)
        assert vm._state.clock.size == 1 and vm._clock is None
        assert vm.clock_of(5) == 0.0 and vm.ledger_of(5).total == Cost()
        vm.charge_flops(1, 3.0, "a")
        assert vm._state is None and vm.clocks().tolist() == [0, 3, 0, 0, 0, 0]
        vm.reset()
        assert vm._state.clock.size == 1 and vm._planes == [None]
        assert not vm.clocks().any() and not vm.totals().any()

    @pytest.mark.parametrize("slabs", [(1, 24, 1), (1, 1, 24), (2, 3, 4),
                                       (4, 3, 2), (3, 8, 1)])
    def test_class_rank_sums_are_the_sequential_rank_order_sums(self, slabs):
        """Slab by slab, with the running sum carried, equals one
        left-to-right pass over the expanded row, signed zeros included."""
        tiling = Slabs(*slabs)
        size = tiling.outer * tiling.inner
        k = min(3, size)                 # every class has a member
        rng = np.random.default_rng(size)
        labels = rng.integers(0, k, size)
        labels[:k] = np.arange(k)
        values = rng.standard_normal((3, k)) * 10.0 ** rng.integers(-8, 8, (3, k))
        values[0, labels[0]] = -0.0
        values[2] = -0.0                 # sums to -0.0, not +0.0
        block = ClassBlock(np.zeros(k), values, np.zeros((0, 3, k)),
                           np.zeros((0, k), dtype=bool), labels, tiling)
        for row in values:
            ranks = block.in_rank_order(row, 24)
            want = np.add.accumulate(ranks)[-1]
            got = block.rank_sum(row, 24)
            assert np.float64(got).tobytes() == want.tobytes()

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            VirtualMachine(0)


class TestRankValidation:
    """Scalar ranks outside ``[0, P)`` raise instead of wrapping around."""

    @pytest.mark.parametrize("rank", [-1, -8, 8, 100])
    def test_charge_flops_rejects_out_of_range_rank(self, rank):
        vm = VirtualMachine(8)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            vm.charge_flops(rank, 5.0, "q")
        assert vm.report().total_cost.flops == 0
        assert vm.clock_of(7) == 0

    @pytest.mark.parametrize("rank", [-1, 8])
    def test_reads_reject_out_of_range_rank(self, rank):
        vm = VirtualMachine(8)
        vm.charge_flops(7, 5.0, "q")
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            vm.clock_of(rank)
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            vm.ledger_of(rank)

    @pytest.mark.parametrize("machine", [VirtualMachine, ScheduleRecorder,
                                         RecordingMachine])
    @pytest.mark.parametrize("call", ["flops_group", "comm_group", "barrier"])
    @pytest.mark.parametrize("rank", [-1, -4, 4, np.int64(-1),
                                      np.array(-1)])
    def test_scalar_rank_of_a_group_call_is_checked(self, machine, call,
                                                    rank):
        """A 0-d rank argument is one rank, checked like ``charge_flops``'s:
        numpy would wrap ``-1`` to rank 3.  Nothing is charged or recorded."""
        vm = machine(4)
        vm.charge_flops(3, 2.0, "w")
        before = (vm.clocks(), vm.totals(), vm.phase_names,
                  getattr(vm, "num_ops", None),
                  len(getattr(vm, "schedule", ())))
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            if call == "flops_group":
                vm.charge_flops_group(rank, 5.0, "q")
            elif call == "comm_group":
                vm.charge_comm_group(rank, CollectiveCost(1, 1), "q")
            else:
                vm.barrier(rank)
        after = (vm.clocks(), vm.totals(), vm.phase_names,
                 getattr(vm, "num_ops", None),
                 len(getattr(vm, "schedule", ())))
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert after[2:] == before[2:]

    def test_scalar_rank_in_range_still_charges_one_rank(self):
        vm = VirtualMachine(4)
        vm.charge_flops_group(3, 5.0, "q")
        vm.charge_comm_group(np.int64(3), CollectiveCost(1, 1), "c")
        vm.barrier(0)
        assert vm.ledger_of(3).total.as_tuple() == (1, 1, 5)
        assert vm.ledger_of(2).total.as_tuple() == (0, 0, 0)

    def test_empty_group_matrix_must_still_be_2d(self):
        vm = VirtualMachine(8)
        with pytest.raises(ValueError, match="2D"):
            vm.charge_comm_groups(np.array([], dtype=int),
                                  CollectiveCost(1, 1), "c")
        vm.charge_comm_groups(np.empty((0, 2), dtype=int),
                              CollectiveCost(1, 1), "c")
        assert vm.report().phase_max == {}


class TestWholeCoverAndAxisForm:
    def test_whole_cover_marks_every_rank_touched(self):
        vm = VirtualMachine(6)
        vm.charge_comm_groups(np.array([[5, 0, 3], [1, 4, 2]]),
                              CollectiveCost(2, 3), "c")
        vm.charge_flops_group(np.array([3, 1, 0, 5, 4, 2]), 7.0, "f")
        for r in range(6):
            assert vm.ledger_of(r).phases == {
                "c": Cost(2.0, 3.0, 0.0), "f": Cost(0.0, 0.0, 7.0)}

    def test_axis_groups_are_lines_of_the_view(self):
        vm = VirtualMachine(12)
        np.testing.assert_array_equal(
            vm.axis_groups((2, 3, 2), 1),
            [[0, 2, 4], [1, 3, 5], [6, 8, 10], [7, 9, 11]])

    @pytest.mark.parametrize("shape, axis", [((3, 3), 0), ((2, 4), 2),
                                             ((2, 4), -1)])
    def test_axis_form_rejects_bad_views(self, shape, axis):
        vm = VirtualMachine(8)
        with pytest.raises(ValueError):
            vm.charge_comm_axis(shape, axis, CollectiveCost(1, 1), "c")


#: Views whose extents multiply to 4 without being positive ints.
BAD_EXTENTS = [((-1, -4), 0), ((True, 4), 0), ((4, True), 1), ((2, 2.0), 0)]


class TestAxisViewValidation:
    """A rejected axis view leaves every machine exactly as it was: no
    phase interned, nothing charged, nothing recorded."""

    @pytest.mark.parametrize("shape, axis", BAD_EXTENTS)
    @pytest.mark.parametrize("machine", [VirtualMachine, RecordingMachine])
    def test_charging_machines_charge_nothing(self, machine, shape, axis):
        vm = machine(4)
        with pytest.raises(ValueError):
            vm.charge_comm_axis(shape, axis, CollectiveCost(1, 2), "p")
        assert vm.phase_names == []
        assert [vm.clock_of(r) for r in range(4)] == [0.0] * 4
        report = vm.report()
        assert report.total_cost == Cost(0.0, 0.0, 0.0)
        assert report.phase_max == {}
        if machine is RecordingMachine:
            assert vm.schedule == []

    @pytest.mark.parametrize("shape, axis", BAD_EXTENTS)
    def test_recorder_records_nothing(self, shape, axis):
        rec = ScheduleRecorder(4)
        rec.charge_flops(0, 1.0, "ok")
        with pytest.raises(ValueError):
            rec.charge_comm_axis(shape, axis, CollectiveCost(1, 2), "p")
        assert rec.num_ops == 1
        assert rec.program(debug=False).phases == ["ok"]

    def test_numpy_integer_extents_are_views(self):
        rec = ScheduleRecorder(8)
        rec.charge_comm_axis(np.array([2, 4]), 1, CollectiveCost(1, 1), "p")
        (op,) = rec.program(debug=True).ops
        assert op.axis == ((2, 4), 1)
