"""Throughput of the virtual-MPI substrate itself.

Not a paper artifact: this measures how fast the simulation layers run,
so regressions in the orchestration (which the whole harness sits on) are
caught.  Three probes: numeric CA-CQR2 end-to-end through a session
(the dispatch path the CLI, studies, and sweeps all share),
symbolic (cost-only) CA-CQR2 at a larger virtual-rank count through the
same engine, and a raw collective storm on the bare substrate.
"""

from __future__ import annotations

import numpy as np

from repro import Session
from repro.engine import MatrixSpec, RunSpec
from repro.vmpi.datatypes import NumericBlock
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


def bench_numeric_cacqr2(benchmark):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 16))
    spec = RunSpec(algorithm="ca_cqr2", data=a, c=2, d=8)
    session = Session()

    result = benchmark(lambda: session.run(spec))
    assert result.q.shape == (256, 16)


def bench_symbolic_cacqr2_512_ranks(benchmark):
    spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(2 ** 12, 2 ** 6),
                   c=4, d=32, mode="symbolic")
    session = Session()

    result = benchmark(lambda: session.run(spec))
    assert result.report.num_ranks == 512
    assert result.report.max_cost.flops > 0


def bench_collective_storm(benchmark):
    def storm():
        vm = VirtualMachine(64)
        grid = Grid3D.cubic(vm, 4)
        blocks = {r: NumericBlock(np.ones((8, 8))) for r in range(64)}
        for _ in range(20):
            for z in range(4):
                for y in range(4):
                    comm = grid.comm_x(y, z)
                    comm.allreduce({r: blocks[r] for r in comm.ranks}, "storm")
        return vm.report()

    report = benchmark(storm)
    assert report.max_cost.messages > 0
