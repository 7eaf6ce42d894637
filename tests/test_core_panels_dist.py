"""Unit tests for distributed panel-blocked CA-CQR2."""

import numpy as np
import pytest

from tests.conftest import make_tunable, rank_events
from tests.test_template_run import MACHINES
from tests.test_vmpi_machine_equivalence import assert_machines_identical

from repro.core.cacqr import ca_cqr2
from repro.core.panels_dist import ca_panel_cqr2
from repro.costmodel.params import STAMPEDE2
from repro.obs import Observer, use_observer
from repro.sched import compiled_replay_disabled
from repro.utils.matgen import matrix_with_condition, random_matrix
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine
from repro.vmpi.reference import RecordingMachine


def orth_err(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2)


class TestCorrectness:
    @pytest.mark.parametrize("c,d,b", [(1, 4, 4), (2, 4, 8), (2, 4, 4), (2, 8, 8)])
    def test_factorization(self, rng, c, d, b):
        vm, g = make_tunable(c, d)
        a = random_matrix(64, 16, rng=rng)
        res = ca_panel_cqr2(vm, DistMatrix.from_global(g, a), panel_width=b)
        q = res.q.to_global()
        np.testing.assert_allclose(q @ res.r, a, atol=1e-10)
        assert orth_err(q) < 1e-11
        assert np.allclose(res.r, np.triu(res.r))
        assert res.panels == 16 // b

    def test_full_width_matches_plain_cacqr2(self, rng):
        vm, g = make_tunable(2, 4)
        a = random_matrix(64, 8, rng=rng)
        res_p = ca_panel_cqr2(vm, DistMatrix.from_global(g, a), panel_width=8)
        vm2, g2 = make_tunable(2, 4)
        res_c = ca_cqr2(vm2, DistMatrix.from_global(g2, a))
        np.testing.assert_allclose(res_p.q.to_global(), res_c.q.to_global(),
                                   atol=1e-12)
        np.testing.assert_allclose(res_p.r, np.triu(res_c.r.to_global()),
                                   atol=1e-12)

    def test_near_square(self, rng):
        vm, g = make_tunable(2, 4)
        a = random_matrix(32, 16, rng=rng)
        res = ca_panel_cqr2(vm, DistMatrix.from_global(g, a), panel_width=4)
        q = res.q.to_global()
        np.testing.assert_allclose(q @ res.r, a, atol=1e-10)
        assert orth_err(q) < 1e-11

    def test_moderately_conditioned(self):
        vm, g = make_tunable(2, 4)
        a = matrix_with_condition(128, 16, 1e4, rng=5)
        res = ca_panel_cqr2(vm, DistMatrix.from_global(g, a), panel_width=8)
        assert orth_err(res.q.to_global()) < 1e-9


class TestCostStructure:
    def test_symbolic_runs_and_charges(self):
        vm, g = make_tunable(2, 4)
        res = ca_panel_cqr2(vm, DistMatrix.symbolic(g, 64, 16), panel_width=8,
                            phase="p")
        assert res.r is None
        rep = vm.report()
        assert rep.max_cost.flops > 0
        assert rep.phase_total("p.panel0.cqr2").flops > 0
        assert rep.phase_total("p.panel0.update.mm3d").flops > 0
        assert rep.phase_total("p.panel1.cqr2").flops > 0
        # Last panel has no trailing update.
        assert rep.phase_total("p.panel1.update").flops == 0

    def test_panels_reduce_flops_for_near_square(self):
        # The Section V claim, at the executed-ledger level: panel width n/4
        # charges fewer flops than one full-width CA-CQR2 when m ~ n.
        m = n = 32
        vm1, g1 = make_tunable(2, 4)
        ca_panel_cqr2(vm1, DistMatrix.symbolic(g1, m, n), panel_width=8)
        vm2, g2 = make_tunable(2, 4)
        ca_panel_cqr2(vm2, DistMatrix.symbolic(g2, m, n), panel_width=n)
        assert vm1.report().max_cost.flops < vm2.report().max_cost.flops

    def test_narrower_panels_trade_flops_for_messages(self):
        # 64 x 32 on a 2x4x2 grid: flops fall, messages rise as b narrows.
        costs = []
        for b in (32, 16, 8):
            vm, g = make_tunable(2, 4)
            ca_panel_cqr2(vm, DistMatrix.symbolic(g, 64, 32), panel_width=b)
            costs.append(vm.report().max_cost)
        flops = [cost.flops for cost in costs]
        msgs = [cost.messages for cost in costs]
        assert flops == sorted(flops, reverse=True)
        assert msgs == sorted(msgs)

    def test_panels_increase_latency(self):
        m, n = 64, 32
        vm1, g1 = make_tunable(2, 4)
        ca_panel_cqr2(vm1, DistMatrix.symbolic(g1, m, n), panel_width=8)
        vm2, g2 = make_tunable(2, 4)
        ca_panel_cqr2(vm2, DistMatrix.symbolic(g2, m, n), panel_width=n)
        assert vm1.report().max_cost.messages > vm2.report().max_cost.messages


class _Spans(list):
    def on_span(self, record):
        self.append(record)


class TestTemplateRunPerPanel:
    """Each symbolic panel's CA-CQR2 is CA-CQR2's own template run, and
    each trailing update one more."""

    @staticmethod
    def run(c, d, m, n, b):
        vm = VirtualMachine(c * c * d, STAMPEDE2)
        a = DistMatrix.symbolic(Grid3D.tunable(vm, c, d), m, n)
        ca_panel_cqr2(vm, a, b, phase="p")
        return vm

    @pytest.mark.parametrize("c,d,m,n,b", [(2, 8, 512, 32, 8),
                                           (4, 8, 1024, 32, 16),
                                           (2, 2, 128, 32, 8),
                                           (4, 4, 256, 32, 16)])
    def test_one_class_run_per_panel_matches_the_loop(self, c, d, m, n, b):
        spans = _Spans()
        with use_observer(Observer(spans)):
            vm = self.run(c, d, m, n, b)
        replays = [s["attrs"] for s in spans if s["name"] == "sched.replay"]
        assert [(r["ranks"], r["classes"]) for r in replays] == \
            [(c ** 3, 2)] * (2 * (n // b) - 1)
        # The update programs' phases (the cross product before them is
        # charged on the machine).
        updates = [name for name in vm.phase_names
                   if ".update.mm3d" in name or name.endswith(".update.sub")]
        assert updates
        assert all(vm._phase_ids[name] in vm._virtual for name in updates)

        cqr2 = [name for name in vm.phase_names if ".cqr2." in name]
        assert {name.split(".")[1] for name in cqr2} == \
            {f"panel{k}" for k in range(n // b)}
        assert all(vm._phase_ids[name] in vm._virtual for name in cqr2)
        assert all(vm._planes[vm._phase_ids[name]] is None for name in cqr2)

        with compiled_replay_disabled():
            loop_vm = self.run(c, d, m, n, b)
        assert_machines_identical(vm, loop_vm)
        assert vm.phase_names == loop_vm.phase_names


#: The template-run machines, and a machine subclass, which runs the loop.
PANEL_MACHINES = {**MACHINES, "recording": RecordingMachine}


@pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
@pytest.mark.parametrize("machine", sorted(PANEL_MACHINES))
@pytest.mark.parametrize("c", [1, 2, 4])
def test_cubic_grid_matches_the_loop(c, machine, numeric):
    """On a cubic grid (one subcube) the compiled panels -- template runs
    for each panel and each trailing update, or the loop on a machine
    subclass -- charge and compute what the loop does, bit for bit."""
    m, n, b = 64 * c, 8 * c, 2 * c

    def run():
        vm = PANEL_MACHINES[machine](c ** 3, STAMPEDE2)
        g = Grid3D.tunable(vm, c, c)
        a = (DistMatrix.from_global(g, random_matrix(m, n, rng=c))
             if numeric else DistMatrix.symbolic(g, m, n))
        res = ca_panel_cqr2(vm, a, b)
        return vm, res

    vm, got = run()
    with compiled_replay_disabled():
        loop_vm, want = run()
    assert_machines_identical(vm, loop_vm)
    assert vm.phase_names == loop_vm.phase_names
    assert rank_events(vm) == rank_events(loop_vm)
    assert bool(vm._virtual) == (machine != "recording")
    if numeric:
        assert got.q.to_global().tobytes() == want.q.to_global().tobytes()
        assert got.r.tobytes() == want.r.tobytes()


class TestValidation:
    def test_panel_must_divide_n(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError, match="divide"):
            ca_panel_cqr2(vm, DistMatrix.symbolic(g, 64, 16), panel_width=6)

    def test_panel_must_be_multiple_of_c(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError, match="multiple of c"):
            ca_panel_cqr2(vm, DistMatrix.symbolic(g, 64, 16), panel_width=1)
