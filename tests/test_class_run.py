"""Template runs on rank classes, beyond CA-CQR2.

A :class:`repro.sched.TemplateRun` holds one value per rank class --
template positions in provably equal state -- and splits a class before
any op that treats its members differently.  These hand-built programs
split classes mid-program in every way an op can: flops on one rank, a
comm family whose groups mix classes unevenly, a non-axis group matrix,
a barrier on a subset, and every position at once.  A class run must
charge exactly what the instance-by-instance loop charges -- and, on a
traced machine, give every rank the loop's event stream -- from a fresh
machine and from a random per-instance-symmetric one; and a fresh
CA-CQR2 template holds exactly the two classes the paper's diagonal
transposes imply.
"""

import numpy as np
import pytest

from tests.conftest import rank_events
from tests.test_vmpi_machine_equivalence import assert_machines_identical

from repro.core.cacqr import ca_cqr2
from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.params import STAMPEDE2
from repro.obs import Observer, use_observer
from repro.sched import (
    OP_BARRIER,
    OP_COMM,
    OP_FLOPS,
    ChargeOp,
    ChargeProgram,
    RankFamilyMap,
    TemplateRun,
    compiled_replay_disabled,
)
from repro.sched.program import Partition, _lowered
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine, axis_group_matrix

PHASES = ["a", "b", "c"]


def flops(ranks, amount, phase=0):
    return ChargeOp(OP_FLOPS, np.asarray(ranks, dtype=np.intp),
                    float(amount), phase)


def comm(groups, messages, words, phase=1):
    return ChargeOp(OP_COMM, np.asarray(groups, dtype=np.intp),
                    CollectiveCost(messages, words), phase)


def axis(shape, ax, messages, words, phase=2):
    return ChargeOp(OP_COMM, axis_group_matrix(shape, ax),
                    CollectiveCost(messages, words), phase, axis=(shape, ax))


def barrier(ranks=None):
    return ChargeOp(OP_BARRIER, None if ranks is None
                    else np.asarray(ranks, dtype=np.intp), None, -1)


#: 8-rank programs, each splitting classes mid-program; the ops before and
#: after the split keep classes meeting in groups.
PROGRAMS = {
    "flops-on-one-rank": [
        axis((2, 2, 2), 0, 1, 4), flops([5], 300.0),
        axis((2, 2, 2), 2, 2, 8), flops(np.arange(8), 7.0, 1),
        axis((2, 2, 2), 1, 1, 16)],
    "uneven-groups": [
        flops([0, 3], 500.0),
        # Classes {0, 3} and the rest: groups meet {A, B}, {B}, {A, B};
        # 5 and 7 stay out, so B splits three ways.
        comm([[0, 1], [2, 4], [3, 6]], 2, 32),
        axis((2, 4), 1, 1, 8), flops([1, 2, 5], 40.0, 2)],
    "non-axis-matrix": [
        flops([1, 2, 4], 90.0), comm([[0, 2, 5, 7], [1, 3, 4, 6]], 3, 12),
        comm([[7, 0], [6, 1], [5, 2]], 1, 64, 2), flops(np.arange(8), 2.0)],
    "subset-barrier": [
        flops([1, 6], 800.0), barrier([1, 2, 6]),
        axis((4, 2), 0, 1, 4), barrier([0, 7]), flops([3], 11.0, 1),
        barrier()],
    "every-position": [
        *(flops([t], 100.0 * (t + 1), t % 3) for t in range(8)),
        comm([[0, 1, 2, 3], [4, 5, 6, 7]], 1, 8),
        axis((2, 2, 2), 1, 2, 16), barrier([2, 5, 6])],
}


def program(name):
    return ChargeProgram(8, PHASES, PROGRAMS[name])


def bindings(num_ranks):
    """Disjoint 8-rank instances: slabs, a permuted rank matrix, and a
    partial cover of the machine."""
    rng = np.random.default_rng(num_ranks)
    perm = rng.permutation(num_ranks).reshape(-1, 8)
    return {
        "slabs": RankFamilyMap.subcubes(
            Grid3D.tunable(VirtualMachine(num_ranks), 2, num_ranks // 4),
            Grid3D.cubic(VirtualMachine(8), 2)),
        "permuted": RankFamilyMap(perm),
        "partial": RankFamilyMap(perm[:-1]),
    }


def symmetric_prefix(vm, binding, seed):
    """Random charges identical across instances but uneven inside each,
    some under the program's own phases."""
    rng = np.random.default_rng(seed)
    maps = binding.maps
    for t, amount in enumerate(rng.integers(1, 10 ** 4, maps.shape[1])):
        vm.charge_flops_group(maps[:, t], float(amount),
                              PHASES[int(rng.integers(0, 3))])
    pairs = rng.permutation(maps.shape[1])[:4].reshape(-1, 2)
    vm.charge_comm_groups(maps[:, pairs].reshape(-1, 2),
                          CollectiveCost(1, 5), "prefix")


def class_run(vm, program, binding, names=None):
    """Charge *program* as one template run; the guard must accept *vm*."""
    names = program.phases if names is None else names
    run = TemplateRun.seed(vm, binding, names)
    assert run is not None
    run.complete([(program, names)])


def assert_class_state_matches_loop(vm, loop_vm):
    """*vm* holds its clocks and totals in class space, and every rank's
    clock and ledger, ``elapsed`` and the report equal the loop's without
    expanding them; one direct charge then expands them to exactly the
    loop machine's arrays after the same charge."""
    assert vm._state is not None and vm._clock is None and vm._total is None
    assert vm.elapsed == loop_vm.elapsed
    assert_machines_identical(vm, loop_vm)
    assert vm._state is not None and vm._clock is None
    for machine in (vm, loop_vm):
        machine.charge_comm_group([0, machine.num_ranks - 1],
                                  CollectiveCost(1, 8), "probe")
    assert vm._state is None
    assert vm.clocks().tobytes() == loop_vm.clocks().tobytes()
    assert vm.totals().tobytes() == loop_vm.totals().tobytes()
    assert vm.report() == loop_vm.report()


def loop(vm, program, binding, names=None):
    """The oracle: every instance, op by op, through the public API --
    reading each op's rank operand, never its axis tag."""
    names = program.phases if names is None else names
    with compiled_replay_disabled():
        for op in program.ops:
            for ranks in binding.maps:
                if op.kind == OP_COMM:
                    vm.charge_comm_groups(ranks[op.ranks], op.payload,
                                          names[op.phase])
                elif op.kind == OP_FLOPS:
                    vm.charge_flops_group(ranks[op.ranks], op.payload,
                                          names[op.phase])
                else:
                    vm.barrier(ranks if op.ranks is None
                               else ranks[op.ranks])


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("prefix", ["fresh", "symmetric"])
@pytest.mark.parametrize("layout", ["slabs", "permuted", "partial"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_class_run_and_loop_agree(name, layout, prefix, trace):
    prog = program(name)
    machines = []
    for charge in (class_run, loop):
        vm = VirtualMachine(32, STAMPEDE2, trace=trace)
        binding = bindings(32)[layout]
        if prefix == "symmetric":
            symmetric_prefix(vm, binding, seed=len(name))
        charge(vm, prog, binding)
        machines.append(vm)
    class_vm, loop_vm = machines
    # A template run interns the phase table in table order, the loop in
    # first-use order; these tables are not in first-use order.
    assert sorted(class_vm.phase_names) == sorted(loop_vm.phase_names)
    # Every split in these programs happens mid-run, so each rank's
    # events cross classes that later split.
    assert rank_events(class_vm) == rank_events(loop_vm)
    assert bool(class_vm.events) == trace
    if layout == "partial":
        # Instances that do not cover the machine are scattered.
        assert class_vm._state is None
        assert_machines_identical(class_vm, loop_vm)
    else:
        assert_class_state_matches_loop(class_vm, loop_vm)


@pytest.mark.parametrize("layout", ["slabs", "permuted"])
def test_reset_after_a_class_install_is_a_fresh_machine(layout):
    """``reset()`` leaves one class of zeros, whatever the install held,
    and the machine then charges as a fresh one does."""
    prog = program("every-position")
    vm = VirtualMachine(32, STAMPEDE2)
    class_run(vm, prog, bindings(32)[layout])
    assert vm._state is not None and vm.elapsed > 0
    vm.reset()
    fresh = VirtualMachine(32, STAMPEDE2)
    assert vm._state.clock.size == 1 and vm._clock is None
    assert all(plane is None for plane in vm._planes)
    assert vm.elapsed == 0.0 and vm.report() == fresh.report()
    assert not vm.clocks().any() and not vm.totals().any()
    for machine, charge in ((vm, class_run), (fresh, loop)):
        charge(machine, prog, bindings(32)[layout])
    assert_class_state_matches_loop(vm, fresh)


def test_every_position_degenerates_to_one_class_per_position():
    vm = VirtualMachine(32, STAMPEDE2)
    run = TemplateRun.seed(vm, bindings(32)["slabs"], PHASES)
    assert run.classes == 1
    run.charge(program("every-position"), PHASES)
    assert run.classes == 8


def _resized(name, scale, phases=("x", "y", "z")):
    """*name*'s program with every payload scaled and another phase table:
    the same structure, other sizes."""
    ops = [ChargeOp(op.kind, op.ranks,
                    None if op.payload is None
                    else op.payload * scale if op.kind == OP_FLOPS
                    else CollectiveCost(op.payload.messages * scale,
                                        op.payload.words * scale),
                    op.phase, op.axis)
           for op in PROGRAMS[name]]
    return ChargeProgram(8, list(phases), ops)


def test_programs_of_one_structure_share_one_lowered_form():
    """The memo is keyed by structure and entry partition, not by program:
    a program that differs only in payloads and phases reuses the form,
    and each still charges exactly its own payloads."""
    _lowered.cache_clear()
    prog, twin = program("uneven-groups"), _resized("uneven-groups", 3)
    assert prog.structure == twin.structure
    assert hash(prog.structure) == hash(twin.structure)
    for charged in (prog, twin):
        class_vm = VirtualMachine(32, STAMPEDE2)
        class_run(class_vm, charged, bindings(32)["slabs"])
        loop_vm = VirtualMachine(32, STAMPEDE2)
        loop(loop_vm, charged, bindings(32)["slabs"])
        assert_machines_identical(class_vm, loop_vm)
    info = _lowered.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    whole = Partition.whole(8)
    assert prog.lowered(whole) is twin.lowered(whole)

    # Another entry partition lowers anew.
    vm = VirtualMachine(32, STAMPEDE2)
    symmetric_prefix(vm, bindings(32)["slabs"], seed=3)
    class_run(vm, twin, bindings(32)["slabs"])
    assert _lowered.cache_info().misses == 2


def test_programs_of_other_rank_structure_do_not_share():
    whole = Partition.whole(8)
    prog = program("uneven-groups")
    moved = ChargeProgram(8, PHASES, [flops([0, 4], 500.0),
                                      *PROGRAMS["uneven-groups"][1:]])
    wider = ChargeProgram(16, PHASES, PROGRAMS["uneven-groups"])
    assert prog.structure != moved.structure
    assert prog.structure != wider.structure
    assert prog.lowered(whole) is not moved.lowered(whole)
    assert not np.array_equal(prog.lowered(whole)[1].labels,
                              moved.lowered(whole)[1].labels)
    class_vm, loop_vm = (VirtualMachine(32, STAMPEDE2) for _ in range(2))
    class_run(class_vm, moved, bindings(32)["slabs"])
    loop(loop_vm, moved, bindings(32)["slabs"])
    assert_machines_identical(class_vm, loop_vm)


def test_lowered_form_memo_stays_bounded():
    bound = _lowered.cache_info().maxsize
    assert bound is not None
    subsets = [[t for t in range(8) if mask >> t & 1]
               for mask in range(1, 256)]
    for k in range(bound + 8):
        prog = ChargeProgram(8, PHASES, [flops(subsets[k % 255], 1.0),
                                         flops(subsets[k // 255], 2.0)])
        prog.lowered(Partition.whole(8))
    assert _lowered.cache_info().currsize == bound


class _Spans(list):
    def on_span(self, record):
        self.append(record)


def template_classes(c, d):
    """The rank classes of a fresh CA-CQR2 template run, as position sets
    in template order, and the run's ``sched.replay`` span."""
    seen = []
    install = TemplateRun.install

    def spy(run):
        seen.append(run._part.labels.copy())
        install(run)

    spans = _Spans()
    vm = VirtualMachine(c * c * d, STAMPEDE2)
    a = DistMatrix.symbolic(Grid3D.tunable(vm, c, d), 64 * d, 4 * c)
    with pytest.MonkeyPatch.context() as mp, use_observer(Observer(spans)):
        mp.setattr(TemplateRun, "install", spy)
        ca_cqr2(vm, a)
    (labels,) = seen
    (run_span,) = [s for s in spans if s["name"] == "sched.replay"]
    return [set(np.flatnonzero(labels == k).tolist())
            for k in range(labels.max() + 1)], run_span


@pytest.mark.parametrize("c", [2, 3, 4, 8])
def test_ca_cqr2_template_holds_the_diagonal_and_the_rest(c):
    classes, run_span = template_classes(c, 2 * c)
    # Template position t is (x, y, z) with t = (z * c + y) * c + x.
    diagonal = {t for t in range(c ** 3) if t % c == (t // c) % c}
    assert sorted(map(len, classes)) == sorted([c * c, c ** 3 - c * c])
    assert diagonal in classes
    assert run_span["attrs"]["ranks"] == c ** 3
    assert run_span["attrs"]["classes"] == 2
    assert run_span["attrs"]["ops"] > 0


def test_ca_cqr2_template_of_one_rank_holds_one_class():
    classes, run_span = template_classes(1, 4)
    assert classes == [{0}]
    assert run_span["attrs"]["classes"] == 1
