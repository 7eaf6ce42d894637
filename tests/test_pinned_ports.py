"""Digest pins for the algorithms whose numerics run on stacked blocks
after being written rank by rank: TSQR, the PGEQRF-like baseline, the
distributed sCQR3 (its ``||A||_F**2`` step and the retry path) and the
numeric panel loop of ``ca_panel_cqr2``; and for plain CA-CQR2.

The digests were recorded while every one of these still looped over
ranks, moving per-rank blocks through communicator collectives; plain
CA-CQR2's while every depth slice still stored its own copy.  The
stacked steps must reproduce Q, R, every rank's clock and per-phase
ledger, and every rank's trace events (in recorded order) exactly.  Q and
R bits also depend on the BLAS build; ledgers and trace events do not.
The portable guards are the per-block re-derivations in
``tests/test_stacked_numerics.py``.
"""

import contextlib
import hashlib

import numpy as np
import pytest

from repro.baselines.scalapack_qr import scalapack_qr
from repro.baselines.tsqr import tsqr_1d
from repro.core.cacqr import ca_cqr2
from repro.core.panels_dist import ca_panel_cqr2
from repro.core.shifted import ca_shifted_cqr3
from repro.sched import compiled_replay_disabled
from repro.utils.matgen import matrix_with_condition
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _machine_digests(vm):
    ledgers = [(vm.clock_of(rank),
                sorted((phase, cost.as_tuple()) for phase, cost in
                       vm.ledger_of(rank).phases.items()))
               for rank in range(vm.num_ranks)]
    events = {}
    for e in vm.events:
        events.setdefault(e.rank, []).append((e.phase, e.kind, e.start, e.end))
    return {"ledger": _digest(repr(ledgers).encode()),
            "events": _digest(repr(sorted(events.items())).encode())}


def _conditioned(m, n, seed):
    return (np.random.default_rng(seed).standard_normal((m, n))
            * np.geomspace(1.0, 1e-4, n))


def run_cacqr2(c, d, m, n):
    vm = VirtualMachine(c * c * d, trace=True)
    g = Grid3D.tunable(vm, c, d)
    res = ca_cqr2(vm, DistMatrix.from_global(g, _conditioned(m, n, c + d)))
    return {"q": _digest(res.q.to_global().tobytes()),
            "r": _digest(b"".join(sub.to_global().tobytes()
                                  for sub in res.r_subcubes)),
            **_machine_digests(vm)}


def run_tsqr(procs, m, n):
    vm = VirtualMachine(procs, trace=True)
    g = Grid3D.build(vm, 1, procs, 1)
    q, r = tsqr_1d(vm, DistMatrix.from_global(g, _conditioned(m, n, procs)))
    return {"q": _digest(q.to_global().tobytes()),
            "r": _digest(r.to_global().tobytes()), **_machine_digests(vm)}


def run_scalapack(pr, pc, b, m, n):
    vm = VirtualMachine(pr * pc, trace=True)
    g = Grid3D.build(vm, pc, pr, 1)
    q, r = scalapack_qr(vm, DistMatrix.from_global(g, _conditioned(m, n, pr + pc)), b)
    return {"q": _digest(q.to_global().tobytes()),
            "r": _digest(r.to_global().tobytes()), **_machine_digests(vm)}


def run_scqr3(c, d, m, n, numeric):
    vm = VirtualMachine(c * c * d, trace=True)
    g = Grid3D.tunable(vm, c, d)
    a = (DistMatrix.from_global(g, matrix_with_condition(m, n, 1e15, rng=0))
         if numeric else DistMatrix.symbolic(g, m, n))
    res = ca_shifted_cqr3(vm, a)
    out = _machine_digests(vm)
    if numeric:
        out["q"] = _digest(res.q.to_global().tobytes())
        out["r"] = _digest(b"".join(sub.to_global().tobytes()
                                    for sub in res.r_subcubes))
    return out


def run_panels(c, d, m, n, b, numeric):
    vm = VirtualMachine(c * c * d, trace=True)
    g = Grid3D.tunable(vm, c, d)
    a = (DistMatrix.from_global(g, _conditioned(m, n, c + d)) if numeric
         else DistMatrix.symbolic(g, m, n))
    res = ca_panel_cqr2(vm, a, b)
    out = _machine_digests(vm)
    if numeric:
        out["q"] = _digest(res.q.to_global().tobytes())
        out["r"] = _digest(res.r.tobytes())
    return out


#: Replay modes every pin must hold in: compiled subcube replay, and the
#: group-by-group loop that is its oracle.
MODES = {"compiled": contextlib.nullcontext, "loop": compiled_replay_disabled}


class TestPinnedDigests:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("m,n,c,d,want", [
        (8192, 64, 1, 16, {"q": "f5936dab43ffe34f", "r": "a85f27aac02be50c",
                           "ledger": "ce97c9f1fb896517", "events": "ac4f4265e11136dc"}),
        (16384, 128, 2, 8, {"q": "fbf7340d9af37afe", "r": "9f0cd976c072e183",
                            "ledger": "b7958020f1b59bed", "events": "af1f7ea25703fa3a"}),
        (8192, 256, 4, 8, {"q": "c6ee1d3774c26b7b", "r": "62534a90d89e8629",
                           "ledger": "d8ef297bd12ffecf", "events": "aea410b5a1a97625"}),
    ])
    def test_ca_cqr2(self, mode, m, n, c, d, want):
        # Plain CA-CQR2 at factor-workload shapes, c in {1, 2, 4}.
        with MODES[mode]():
            assert run_cacqr2(c, d, m, n) == want

    @pytest.mark.parametrize("procs,m,n,want", [
        (1, 64, 8, {"q": "853bc3fd6ba06f74", "r": "61b410cd9ea2b29f",
                    "ledger": "e1754bff150ceb02", "events": "ff759e1ed4545b9e"}),
        (4, 256, 16, {"q": "00af6c75b0df7101", "r": "eb04eb3f2f327089",
                      "ledger": "30af3f6237134f09", "events": "a848a769205903ff"}),
        (16, 1024, 16, {"q": "f5733f9b6cb47f57", "r": "542937e53748dca2",
                        "ledger": "4ac68973b754e922", "events": "23e3a602ae7019a7"}),
    ])
    def test_tsqr(self, procs, m, n, want):
        assert run_tsqr(procs, m, n) == want

    @pytest.mark.parametrize("pr,pc,b,m,n,want", [
        (4, 2, 4, 256, 16, {"q": "d13023ab21f25abb", "r": "451579a9667e3e5d",
                            "ledger": "27cd40d26a191816", "events": "1ea020cb410520d2"}),
        (2, 4, 8, 128, 32, {"q": "7523c6e5b4e77c69", "r": "4a661b417de34a4d",
                            "ledger": "2fcf09b623ca5cfc", "events": "d99a774f34af2a9d"}),
        (8, 1, 8, 256, 24, {"q": "adcb73c8d1b61a81", "r": "39cb6bf0f0e5605b",
                            "ledger": "4b202158ac436bce", "events": "74438a5f6ef8e8a3"}),
        (2, 2, 4, 64, 12, {"q": "99929118a7b167b3", "r": "b9ded169804e4e87",
                           "ledger": "a43161a495dd6045", "events": "7441e7eb53e88c50"}),
    ])
    def test_scalapack(self, pr, pc, b, m, n, want):
        assert run_scalapack(pr, pc, b, m, n) == want

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("c,d,m,n,numeric,want", [
        (2, 8, 1024, 32, True, {"q": "9452ff5631e2b2ff", "r": "0f7cbb61dbaa6eba",
                                "ledger": "06dd26bdcbb218f6", "events": "f94a9d92c18d4207"}),
        (2, 8, 1024, 32, False, {"ledger": "7f8acc70b53faf87",
                                 "events": "0733a377e2543727"}),
        (1, 4, 256, 16, True, {"q": "0821022c16c0ca0d", "r": "0cf93dfd39a9ad36",
                               "ledger": "6da72218ebe7feef", "events": "25f951c80f9bebee"}),
        (2, 2, 1024, 32, True, {"q": "86da6f22e9617665", "r": "75279a9598b1b19b",
                                "ledger": "1c10199d0397d8b7", "events": "b1a6acd91e81d50a"}),
    ])
    def test_shifted_cqr3_retry_path(self, mode, c, d, m, n, numeric, want):
        # kappa = 1e15: the first CQR2 attempt breaks down and sCQR3 runs
        # a second shifted pass, so the norm step runs twice.
        with MODES[mode]():
            assert run_scqr3(c, d, m, n, numeric) == want

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("c,d,m,n,b,want", [
        (2, 8, 512, 32, 8, {"q": "3a401b1aa9fcb7ef", "r": "2e648c314a794340",
                            "ledger": "274ec54905316a88", "events": "9b6c043440c844dd"}),
        (1, 4, 256, 24, 8, {"q": "1716a0bd41824dee", "r": "ae23174e2dfdd41e",
                            "ledger": "41d359d849202964", "events": "3ba5fcebccce4416"}),
        (2, 2, 256, 24, 4, {"q": "040e40ba7eca6567", "r": "6534da5c917725c3",
                            "ledger": "442d4bb2bdbc605b", "events": "a8f3c92b1c8224ea"}),
        (2, 4, 256, 16, 16, {"q": "cc145a187cadb93a", "r": "4f3f1dbc91fbba0a",
                             "ledger": "bd1ad11ea8fde12b", "events": "8a4afa27cea6503e"}),
    ])
    def test_panel_cqr2(self, mode, c, d, m, n, b, want):
        with MODES[mode]():
            assert run_panels(c, d, m, n, b, numeric=True) == want
            # Symbolic runs charge the machine exactly like numeric ones.
            machine = {k: want[k] for k in ("ledger", "events")}
            assert run_panels(c, d, m, n, b, numeric=False) == machine
