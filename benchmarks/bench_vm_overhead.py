"""Overhead of the vectorized virtual machine, against the seed semantics.

Not a paper artifact: this pins the PR-3 tentpole claim -- the
array-backed :class:`~repro.vmpi.machine.VirtualMachine` makes symbolic
(cost-only) simulation *model-bound* instead of interpreter-bound.  Two
probes:

1. **Machine replay** -- record the exact charge schedule of a symbolic
   CA-CQR2 run at ``p = 4096``, then replay it through (a) the seed's
   per-rank-object semantics (:mod:`repro.vmpi.reference`, the same
   executable specification the equivalence test suite checks against)
   and (b) a fresh vectorized machine.  Identical work, two accounting
   engines; the asserted ``>= 5x`` speedup is the tentpole's acceptance
   bar.
2. **Symbolic p-ladder** -- end-to-end symbolic ``ca_cqr2`` wall time at
   ``p = 2**10 .. 2**16`` through the engine, demonstrating that
   paper-scale (and beyond-paper-scale) strong-scaling studies complete
   in seconds.

Results are written to ``BENCH_vm.json`` at the repository root (raw
numbers, machine-readable) and archived as text under
``benchmarks/results/``.  Set ``REPRO_BENCH_TOY=1`` (the CI smoke job)
to shrink every probe to toy sizes.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Dict, List

import numpy as np

from benchmarks.common import archive
from repro import Session
from repro.engine import MatrixSpec, RunSpec
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine
from repro.vmpi.reference import RecordingMachine, replay
from repro.core.cacqr import ca_cqr2

TOY = bool(os.environ.get("REPRO_BENCH_TOY"))
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_vm.json")

#: (p, c, d, m, n) ladder; toy mode shrinks to CI-friendly sizes.
LADDER = ([(16, 2, 4, 1024, 8), (64, 4, 4, 1024, 16)] if TOY else
          [(2 ** 10, 4, 64, 2 ** 18, 64),
           (2 ** 12, 8, 64, 2 ** 18, 64),
           (2 ** 14, 16, 64, 2 ** 18, 64),
           (2 ** 16, 16, 256, 2 ** 18, 64)])

REPLAY_GRID = (2, 4, 1024, 8) if TOY else (16, 16, 2 ** 14, 64)  # p=16 / 4096
# Numpy slice updates only pay off with group size; at the toy p=16 the
# per-call overhead dominates, so the smoke job just exercises the probe
# while the full run enforces the tentpole's acceptance bar at p=4096.
MIN_REPLAY_SPEEDUP = 0.0 if TOY else 5.0


def _replay_seed(schedule, num_ranks) -> float:
    """Seconds to push a recorded schedule through the seed semantics."""
    start = time.perf_counter()
    replay(schedule, num_ranks)
    return time.perf_counter() - start


def _replay_vectorized(schedule, num_ranks) -> float:
    """Seconds to push the same schedule through the vectorized machine."""
    vm = VirtualMachine(num_ranks)
    groups_cache: Dict[int, np.ndarray] = {}
    start = time.perf_counter()
    for kind, ranks, payload, phase in schedule:
        if kind == "flops":
            if len(ranks) == 1:
                vm.charge_flops(ranks[0], payload, phase)
            else:
                vm.charge_flops_group(np.asarray(ranks, dtype=np.intp),
                                      payload, phase)
        elif kind == "comm":
            if len(ranks) == 1:
                vm.charge_comm_group(np.asarray(ranks[0], dtype=np.intp),
                                     payload, phase)
            else:
                vm.charge_comm_groups(np.asarray(ranks, dtype=np.intp),
                                      payload, phase)
        else:
            vm.barrier(None if ranks is None
                       else np.asarray(ranks, dtype=np.intp))
    return time.perf_counter() - start


def _merge_json(update: dict) -> None:
    data = {}
    with contextlib.suppress(OSError, json.JSONDecodeError), \
            open(BENCH_JSON) as fh:
        data = json.load(fh)
    data.update(update)
    data["toy"] = TOY
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bench_machine_replay_speedup(benchmark):
    """Seed-vs-vectorized machine on the identical charge schedule."""
    c, d, m, n = REPLAY_GRID
    p = c * c * d
    vm = RecordingMachine(p)
    grid = Grid3D.tunable(vm, c, d)
    ca_cqr2(vm, DistMatrix.symbolic(grid, m, n))
    charges = sum(len(ranks) if kind == "comm" else 1
                  for kind, ranks, _, _ in vm.schedule if kind != "barrier")

    vec_seconds = benchmark(lambda: _replay_vectorized(vm.schedule, p))
    seed_seconds = _replay_seed(vm.schedule, p)
    speedup = seed_seconds / vec_seconds

    lines = [
        f"machine replay @ p={p} (c={c}, d={d}, {m}x{n} symbolic ca_cqr2)",
        f"  recorded charge calls      : {len(vm.schedule)}",
        f"  expanded per-group charges : {charges}",
        f"  seed per-rank machine      : {seed_seconds:.4f} s",
        f"  vectorized machine         : {vec_seconds:.4f} s",
        f"  speedup                    : {speedup:.1f}x (bar: >= {MIN_REPLAY_SPEEDUP}x)",
    ]
    archive("bench_vm_overhead_replay", "\n".join(lines))
    _merge_json({"machine_replay": {
        "p": p, "c": c, "d": d, "m": m, "n": n,
        "schedule_calls": len(vm.schedule),
        "expanded_charges": charges,
        "seed_seconds": seed_seconds,
        "vectorized_seconds": vec_seconds,
        "speedup": speedup,
    }})
    assert speedup >= MIN_REPLAY_SPEEDUP, (
        f"vectorized machine only {speedup:.1f}x faster than the seed "
        f"per-rank machine (bar: {MIN_REPLAY_SPEEDUP}x)")


def bench_symbolic_scaling_ladder(benchmark):
    """End-to-end symbolic ca_cqr2 wall time across the p-ladder."""
    rows: List[dict] = []
    session = Session()

    def ladder():
        rows.clear()
        for p, c, d, m, n in LADDER:
            spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(m, n),
                           c=c, d=d, mode="symbolic")
            start = time.perf_counter()
            result = session.run(spec)
            seconds = time.perf_counter() - start
            rows.append({
                "p": p, "c": c, "d": d, "m": m, "n": n,
                "seconds": seconds,
                "critical_path_time": result.report.critical_path_time,
                "max_messages": result.report.max_cost.messages,
                "max_words": result.report.max_cost.words,
                "max_flops": result.report.max_cost.flops,
            })
        return rows

    benchmark(ladder)
    if not rows:
        ladder()

    sizes = "toy" if TOY else "full"
    lines = [f"symbolic ca_cqr2 p-ladder ({sizes} sizes)",
             f"{'p':>8} {'grid':>12} {'matrix':>14} {'wall(s)':>9} {'T_cp':>12}"]
    for r in rows:
        grid_label = f"{r['c']}x{r['d']}x{r['c']}"
        matrix_label = f"{r['m']}x{r['n']}"
        lines.append(f"{r['p']:>8} {grid_label:>12} {matrix_label:>14} "
                     f"{r['seconds']:>9.3f} {r['critical_path_time']:>12.5g}")
    archive("bench_vm_overhead_ladder", "\n".join(lines))
    _merge_json({"symbolic_ladder": rows})

    for r in rows:
        assert r["critical_path_time"] > 0
    if not TOY:
        top = rows[-1]
        assert top["p"] == 2 ** 16
        assert top["seconds"] < 60.0, (
            f"p=2^16 symbolic run took {top['seconds']:.1f}s; "
            "the vectorized machine should finish in seconds")
