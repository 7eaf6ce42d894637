"""CA-CQR's compiled run against the per-subcube loop oracle.

Compiled unless :func:`repro.sched.compiled_replay_disabled`, on a plain
machine, traced or not, whose subcubes hold identical state,
:func:`repro.core.cacqr.ca_cqr2` (and one :func:`~repro.core.cacqr.ca_cqr`
pass) charges its whole schedule -- both Gram dances, the subcube passes
and the merge -- on one ``c**3``-rank template machine and writes it back
to every subcube once; a machine subclass, or asymmetric entry state,
runs the loop instead.  These tests diff the template run against the
loop under :func:`repro.sched.compiled_replay_disabled`: clocks, every
per-rank ledger, the report, ``Q`` and ``R`` (and each rank's trace
events) must be bit-identical, after a fresh start, after a
per-subcube-symmetric prefix (which keeps the template run engaged) and
after a random one (which must fall back, unless the grid is cubic: its
one subcube always agrees with itself).
"""

import tracemalloc

import numpy as np
import pytest

from tests.conftest import rank_events
from tests.test_class_run import assert_class_state_matches_loop, class_run
from tests.oracles.reference import RecordingMachine
from tests.test_vmpi_machine_equivalence import assert_machines_identical

import repro.core.cacqr as cacqr
from repro.core.cacqr import ca_cqr, ca_cqr2
from repro.core.panels_dist import ca_panel_cqr2
from repro.core.shifted import ca_shifted_cqr3
from repro.costmodel.params import STAMPEDE2
from repro.kernels.cholesky import CholeskyFailure
from repro.obs import Observer, use_observer
from repro.sched import RankFamilyMap, ScheduleRecorder, compiled_replay_disabled
from repro.utils.matgen import matrix_with_condition
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

ALGORITHMS = {
    "ca_cqr2": lambda vm, a: ca_cqr2(vm, a),
    "ca_cqr": lambda vm, a: ca_cqr(vm, a, gram_shift=0.25),
    "ca_shifted_cqr3": lambda vm, a: ca_shifted_cqr3(vm, a),
}


def _prefix_work(prefix, c, d):
    """Per-rank flops charged before the algorithm, or ``None``."""
    rng = np.random.default_rng(c * c * d)
    if prefix == "random":
        return rng.integers(1, 10_000, c * c * d).astype(float)
    if prefix == "per-subcube":
        # Unequal inside a subcube, repeated in every subcube: the rank
        # space viewed as [z, group, y mod c, x].
        return np.broadcast_to(rng.integers(1, 10_000, (c, 1, c * c)),
                               (c, d // c, c * c)).reshape(-1).astype(float)
    return None


def _run(machine, algorithm, c, d, numeric, prefix):
    vm = machine(c * c * d, STAMPEDE2)
    g = Grid3D.tunable(vm, c, d)
    m, n = 8 * d, 4 * c
    a = (DistMatrix.from_global(g, np.random.default_rng(d).standard_normal((m, n)))
         if numeric else DistMatrix.symbolic(g, m, n))
    work = _prefix_work(prefix, c, d)
    if work is not None:
        for rank, flops in enumerate(work):
            vm.charge_flops(rank, flops, "prefix")
    if prefix == "per-subcube":
        # A whole earlier run leaves every phase interned -- in class
        # space, on the template path -- so the guard seeds from it.
        ALGORITHMS[algorithm](vm, a)
    return vm, ALGORITHMS[algorithm](vm, a)


def _factors(result):
    if result.q.data is None:
        return None
    return (result.q.to_global().tobytes(),
            [r.to_global().tobytes() for r in result.r_subcubes])


def _virtual(vm, name):
    """Whether phase *name* is held in class space: a row of per-class
    values in an installed block, with no concrete plane."""
    pid = vm._phase_ids[name]
    if pid not in vm._virtual:
        return False
    block, row = vm._virtual[pid]
    assert vm._planes[pid] is None
    assert block.values[row].shape == (3, int(block.labels.max()) + 1)
    return True


MACHINES = {
    "plain": VirtualMachine,
    "traced": lambda p, spec: VirtualMachine(p, spec, trace=True),
}


def _case(machine, subcubes, c, algorithm, prefix, numeric):
    mode = "numeric" if numeric else "symbolic"
    return pytest.param(machine, subcubes, c, algorithm, prefix, numeric,
                        id=f"{machine}-{subcubes}-{c}-{algorithm}-{prefix}-{mode}")


#: Every grid, the cubic ``d == c`` one included, on the plain machine
#: (the template run, or the loop after a random prefix) and the traced
#: one.  Traced, three grids (one subcube and two at c=2, eight at c=1)
#: run every case, and every grid runs each algorithm from a fresh
#: machine, symbolically: per-rank events do not depend on the mode (see
#: ``test_vmpi_machine_equivalence``'s symbolic-equals-numeric test).
CASES = [_case(machine, subcubes, c, algorithm, prefix, numeric)
         for machine in MACHINES
         for subcubes in (1, 2, 4, 8)
         for c in (1, 2, 3, 4)
         for algorithm in sorted(ALGORITHMS)
         for prefix in ("fresh", "per-subcube", "random")
         for numeric in (False, True)
         if machine == "plain" or (subcubes, c) in ((1, 2), (2, 2), (8, 1))
         or not numeric and prefix == "fresh"]


class _Spans(list):
    def on_span(self, record):
        self.append(record)


def _template_runs(spans):
    """The ``sched.replay`` spans' attributes; every one must report its
    classes."""
    runs = [s["attrs"] for s in spans if s["name"] == "sched.replay"]
    assert all(r["classes"] >= 1 for r in runs)
    return runs


@pytest.mark.parametrize("machine,subcubes,c,algorithm,prefix,numeric", CASES)
def test_template_run_matches_loop_oracle(machine, subcubes, c, algorithm,
                                          prefix, numeric):
    d = c * subcubes
    make = MACHINES[machine]
    spans = _Spans()
    with use_observer(Observer(spans)):
        vm, got = _run(make, algorithm, c, d, numeric, prefix)
    with compiled_replay_disabled():
        loop_vm, want = _run(make, algorithm, c, d, numeric, prefix)
    assert vm.phase_names == loop_vm.phase_names
    assert list(vm.report().phase_max) == list(loop_vm.report().phase_max)
    assert _factors(got) == _factors(want)
    if machine == "traced":
        assert vm.events and rank_events(vm) == rank_events(loop_vm)

    # The template run engaged exactly where the subcubes were symmetric
    # (one subcube always is), traced or not: its Gram dance then never
    # built a (3, P) plane.
    engaged = prefix != "random" or subcubes == 1
    gram_phase = {"ca_cqr2": "cacqr2.pass1", "ca_cqr": "cacqr",
                  "ca_shifted_cqr3": "sCQR3.shifted-pass"}[algorithm]
    assert _virtual(vm, f"{gram_phase}.allreduce-roots") == engaged
    assert bool(_template_runs(spans)) == engaged
    if prefix == "fresh" and algorithm != "ca_shifted_cqr3":
        # Nothing else charged the machine: every phase is virtual, all
        # in the one block the run installed.
        assert len(vm._virtual) == len(vm.phase_names)
        assert all(plane is None for plane in vm._planes)
        assert len({id(block) for block, _ in vm._virtual.values()}) == 1
    # The run installs clocks and totals in class space too (sCQR3 then
    # charges its norm step directly); reads leave them there.
    if engaged and algorithm != "ca_shifted_cqr3":
        assert_class_state_matches_loop(vm, loop_vm)
    else:
        assert vm._state is None
        assert_machines_identical(vm, loop_vm)


@pytest.mark.parametrize("perturb", ["clock", "total", "phase", "lazy-phase"])
def test_each_guard_input_alone_forces_the_fallback(perturb):
    """Subcubes that agree on everything but one guard input -- clocks,
    totals, or one phase the run charges (concrete, or virtual from an
    earlier run) -- run the loop."""
    c, d = 2, 8

    def run():
        vm = VirtualMachine(c * c * d, STAMPEDE2)
        g = Grid3D.tunable(vm, c, d)
        a = DistMatrix.symbolic(g, 256, 16)
        if perturb == "lazy-phase":
            ca_cqr2(vm, a)
        work = _prefix_work("per-subcube", c, d)
        for rank, flops in enumerate(work):
            vm.charge_flops(rank, flops, "prefix")
        victim = int(g.subcube(2).ranks[1, 0, 1])
        if perturb == "clock":
            vm.barrier(g.subcube(2).all_ranks_array)
        elif perturb == "total":
            vm.charge_flops(victim, 5.0, "other")
            vm.barrier()
        else:
            # Same totals and clocks everywhere; only a phase of the run
            # differs, in subcube 2.
            for group in range(d // c):
                rank = int(g.subcube(group).ranks[1, 0, 1])
                vm.charge_flops(rank, 5.0, "cacqr2.pass2.local-gram"
                                if rank == victim else "other")
        ca_cqr2(vm, a)
        return vm

    vm = run()
    with compiled_replay_disabled():
        loop_vm = run()
    assert not _virtual(vm, "cacqr2.pass2.bcast-w")
    assert_machines_identical(vm, loop_vm)
    assert vm.phase_names == loop_vm.phase_names


def test_lazy_phases_of_another_layout_are_checked_not_trusted():
    """A phase left virtual by another binding of the same template size
    tiles the machine differently from the subcubes: the guard must read
    it per rank, find the subcubes disagree, and fall back -- even though
    clocks and totals agree everywhere."""
    rec = ScheduleRecorder(8)
    rec.charge_flops_group(np.arange(4), 3.0, "cacqr2.pass1.local-gram")
    rec.charge_flops_group(np.arange(4, 8), 3.0, "other")
    blocks = RankFamilyMap(np.arange(32).reshape(4, 8))

    def run():
        vm = VirtualMachine(32, STAMPEDE2)
        class_run(vm, rec.program(), blocks)
        ca_cqr2(vm, DistMatrix.symbolic(Grid3D.tunable(vm, 2, 8), 256, 16))
        return vm

    vm = run()
    with compiled_replay_disabled():
        loop_vm = run()
    assert not _virtual(vm, "cacqr2.pass2.bcast-w")
    assert_machines_identical(vm, loop_vm)


def _digest_state(vm):
    """Clocks, totals and per-rank ledgers, exactly."""
    return (vm.clocks().tobytes(), vm.totals().tobytes(),
            [sorted((k, v.as_tuple()) for k, v in vm.ledger_of(r).phases.items())
             for r in range(vm.num_ranks)],
            vm.phase_names)


#: The kappa = 1e15 sCQR3 retry cases pinned (traced) in test_pinned_ports.
BREAKDOWN_CASES = [(2, 8, 1024, 32), (1, 4, 256, 16), (2, 2, 1024, 32)]


class TestUntracedBreakdown:
    """A CholeskyFailure on a plain machine leaves the loop's exact state."""

    @pytest.mark.parametrize("c,d,m,n", BREAKDOWN_CASES)
    def test_scqr3_retry_matches_loop(self, c, d, m, n, monkeypatch):
        states = []
        inner = cacqr.ca_cqr2

        def observed_ca_cqr2(vm, a, *args, **kwargs):
            try:
                return inner(vm, a, *args, **kwargs)
            except CholeskyFailure:
                states.append(_digest_state(vm))
                raise

        monkeypatch.setattr(cacqr, "ca_cqr2", observed_ca_cqr2)

        def run():
            vm = VirtualMachine(c * c * d)
            g = Grid3D.tunable(vm, c, d)
            a = DistMatrix.from_global(
                g, matrix_with_condition(m, n, 1e15, rng=0))
            res = ca_shifted_cqr3(vm, a)
            return (_digest_state(vm), res.q.to_global().tobytes(),
                    [r.to_global().tobytes() for r in res.r_subcubes])

        got = run()
        with compiled_replay_disabled():
            want = run()
        assert len(states) == 2          # one breakdown per run
        assert states[0] == states[1]    # right after the CholeskyFailure
        assert got == want               # after the retry

    @pytest.mark.parametrize("failing_pass", [1, 2])
    def test_failure_in_either_pass_matches_loop(self, failing_pass,
                                                 monkeypatch):
        """Inject a breakdown into pass 1's or pass 2's numerics: the
        template run must leave what the loop leaves when subcube 0's
        CFR3D breaks down in that pass -- everything up to that pass's
        Gram dance plus subcube 0's CFR3D."""
        c, d = 2, 8
        inner_pass, inner_cfr3d = cacqr._subcube_pass_numeric, cacqr.cfr3d

        def run(loop):
            calls = []

            def failing_pass_numeric(*args):
                calls.append(None)
                if len(calls) == failing_pass:
                    raise CholeskyFailure("injected")
                return inner_pass(*args)

            def failing_cfr3d(*args, **kwargs):
                # d/c loop calls per pass: subcube 0's of the failing
                # pass charges its CFR3D, then breaks down.
                result = inner_cfr3d(*args, **kwargs)
                calls.append(None)
                if len(calls) == (failing_pass - 1) * (d // c) + 1:
                    raise CholeskyFailure("injected")
                return result

            vm = VirtualMachine(c * c * d, STAMPEDE2)
            g = Grid3D.tunable(vm, c, d)
            a = DistMatrix.from_global(
                g, np.random.default_rng(5).standard_normal((256, 16)))
            with monkeypatch.context() as patch, \
                    pytest.raises(CholeskyFailure, match="injected"):
                if loop:
                    patch.setattr(cacqr, "cfr3d", failing_cfr3d)
                    with compiled_replay_disabled():
                        ca_cqr2(vm, a)
                else:
                    patch.setattr(cacqr, "_subcube_pass_numeric",
                                  failing_pass_numeric)
                    ca_cqr2(vm, a)
            return vm

        vm, ref = run(loop=False), run(loop=True)
        assert vm._virtual                  # the template run engaged
        assert_machines_identical(vm, ref)
        assert vm.phase_names == ref.phase_names


def test_traced_machine_takes_the_template_run_and_subclasses_the_loop():
    for machine, engaged in ((lambda p: VirtualMachine(p, trace=True), True),
                             (RecordingMachine, False)):
        vm = machine(32)
        ca_cqr2(vm, DistMatrix.symbolic(Grid3D.tunable(vm, 2, 8), 256, 16))
        assert bool(vm._virtual) == engaged


def test_second_run_seeds_lazy_phases_without_materializing(monkeypatch):
    """Re-running CA-CQR2 under the same phases seeds the template from the
    first run's class-space block; the guard expands none of them to
    (3, P)."""
    def run():
        vm = VirtualMachine(64, STAMPEDE2)
        a = DistMatrix.symbolic(Grid3D.tunable(vm, 2, 16), 512, 16)
        ca_cqr2(vm, a)
        ca_cqr2(vm, a)
        return vm

    with compiled_replay_disabled():
        ref = run()
    expanded = []
    materialize = VirtualMachine._materialize
    monkeypatch.setattr(VirtualMachine, "_materialize",
                        lambda vm, pid: expanded.append(pid)
                        or materialize(vm, pid))
    vm = run()
    assert expanded == []
    assert all(plane is None for plane in vm._planes)
    assert_machines_identical(vm, ref)


#: ``(c, d/c, n, n0)``: every grid extent up to 8, one to four subcubes,
#: and three CFR3D depths.
LATTICE = [(c, groups, n_over_c * c, n0_over_c * c)
           for c in (1, 2, 4, 8) for groups in (1, 2, 4)
           for n_over_c, n0_over_c in ((2, 1), (4, 1), (8, 4))]

#: Each algorithm under its CFR3D cutoff: CA-CQR2, the shifted CA-CQR
#: pass of sCQR3, and panel CA-CQR2 over two panels.
CUTOFF_ALGORITHMS = {
    "ca_cqr2": lambda vm, a, n0: ca_cqr2(vm, a, n0),
    "ca_shifted_cqr3": lambda vm, a, n0: ca_shifted_cqr3(vm, a, n0),
    "ca_panel_cqr2": lambda vm, a, n0: ca_panel_cqr2(vm, a, a.n // 2, n0),
}


@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
@pytest.mark.parametrize("algorithm", sorted(CUTOFF_ALGORITHMS))
@pytest.mark.parametrize("c,groups,n,n0", LATTICE)
def test_class_space_lattice_matches_loop_oracle(c, groups, n, n0, algorithm,
                                                 numeric):
    """Twice on one machine, so the second template run seeds from the
    first one's installed blocks: the report, its ``phase_max`` key
    order, every clock and sampled ranks' ledgers equal the loop's."""
    d = c * groups
    p = c * c * d
    run_algorithm = CUTOFF_ALGORITHMS[algorithm]

    def run():
        vm = VirtualMachine(p, STAMPEDE2)
        g = Grid3D.tunable(vm, c, d)
        m = 8 * d
        a = (DistMatrix.from_global(
                g, np.random.default_rng(p + n).standard_normal((m, n)))
             if numeric else DistMatrix.symbolic(g, m, n))
        run_algorithm(vm, a, n0)
        spans = _Spans()
        with use_observer(Observer(spans)):
            run_algorithm(vm, a, n0)
        return vm, _template_runs(spans)

    vm, replays = run()
    with compiled_replay_disabled():
        loop_vm, _ = run()
    assert replays, "the second run took no template run"
    if algorithm == "ca_panel_cqr2":
        # Two panels' CA-CQR2 and the trailing update between them, each
        # one template run; the update's phases stay in class space.
        assert len(replays) == 3
        update = [pid for name, pid in vm._phase_ids.items()
                  if ".update.mm3d" in name or name.endswith(".update.sub")]
        assert update and all(pid in vm._virtual for pid in update)
    assert all(plane is None for plane in
               (vm._planes[pid] for pid in vm._virtual))
    got, want = vm.report(), loop_vm.report()
    assert got == want
    assert list(got.phase_max) == list(want.phase_max)
    assert vm.clocks().tobytes() == loop_vm.clocks().tobytes()
    ranks = {0, p // 3, p // 2, p - 1,
             *np.random.default_rng(p).integers(0, p, 6).tolist()}
    for r in sorted(ranks):
        assert vm.clock_of(r) == loop_vm.clock_of(r)
        assert vm.ledger_of(r).total == loop_vm.ledger_of(r).total
        assert vm.ledger_of(r).phases == loop_vm.ledger_of(r).phases


def test_plain_symbolic_run_allocates_no_per_rank_array():
    """A symbolic CA-CQR2 on a fresh machine's root grid holds clocks,
    totals and phases in class space and never builds the grid's rank
    array: no ``(P,)``-sized allocation, not even in the report, whose
    only per-rank pass expands one slab (``P / c`` ranks) of one totals
    row at a time."""
    c, d = 4, 4096
    p, row = c * c * d, 8 * c * c * d

    def run():
        vm = VirtualMachine(p, STAMPEDE2)
        grid = Grid3D.tunable(vm, c, d)
        ca_cqr2(vm, DistMatrix.symbolic(grid, 16 * d, 16))
        return vm, grid

    run()                                   # warm the program memos
    tracemalloc.start()
    try:
        vm, grid = run()
        held, charging = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = vm.report()
        reporting = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert charging < row // 4, charging
    assert row // c <= reporting < row // c + row // 8, reporting
    assert vm._clock is None and vm._total is None and grid._ranks is None
    assert all(plane is None for plane in vm._planes)
    assert report.critical_path_time == vm.elapsed > 0
