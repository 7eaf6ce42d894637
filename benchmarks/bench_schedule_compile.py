"""Compiled charge programs: compile-once/replay-N against the loop path.

Not a paper artifact: this pins the PR-6 tentpole claims for
:mod:`repro.sched`.  Five probes:

1. **Panels replay** -- symbolic panel-blocked CA-CQR2
   (:func:`~repro.core.panels_dist.ca_panel_cqr2`), compiled program
   replay vs the per-panel Python loop on identical inputs, with the
   cost reports asserted equal.  The ``>= 5x`` speedup at bench sizes is
   the acceptance bar.
2. **Symbolic p-ladder top end** -- one end-to-end symbolic CA-CQR2 run
   at ``p = 2**20``, the point the ROADMAP called out at ~20s before
   the IR; must now land well under it.
3. **Zero per-op string work** -- replaying a several-hundred-op program
   may intern each *distinct phase name* once, never once per op
   (asserted by counting ``_phase_id`` calls under replay).
4. **Verify-on-capture overhead** -- capturing with ``debug=True``
   (the :mod:`repro.analysis` verifier, always on under the test
   suite) must stay within ``MAX_VERIFY_OVERHEAD`` of a raw capture.
5. **Numeric subcube replay** -- numeric CA-CQR2 at ``d > c``, whose
   redundant per-subcube numerics run once and whose charges replay onto
   all ``d/c`` subcubes, vs the per-subcube loop: ``Q``, every ``R`` and
   the cost report must be bit-identical, and at bench sizes the compiled
   run must be ``MIN_NUMERIC_SPEEDUP`` times faster.

Results are written to ``BENCH_sched.json`` at the repository root and
archived as text under ``benchmarks/results/``.  Set
``REPRO_BENCH_TOY=1`` (the CI smoke job) to shrink every probe.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import List

import numpy as np

from benchmarks.common import archive
from repro.core.cacqr import ca_cqr2
from repro.core.panels_dist import (
    _panel_cqr2_program,
    _panel_update_program,
    ca_panel_cqr2,
)
from repro import Session
from repro.engine import MatrixSpec, RunSpec
from repro.sched import RankFamilyMap, ScheduleRecorder, compiled_replay_disabled
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

TOY = bool(os.environ.get("REPRO_BENCH_TOY"))
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_sched.json")

#: (c, d, m, n, b) for the panels probe; n/b panels on a c x d x c grid.
PANELS = (2, 4, 2 ** 10, 64, 16) if TOY else (4, 32, 2 ** 14, 256, 16)
# At toy sizes per-call overhead dominates, so the smoke job only
# exercises the probe; the full run enforces the acceptance bar.
MIN_PANEL_SPEEDUP = 0.0 if TOY else 5.0

#: (c, d, m, n) for the ladder-top probe; p = c*d*c.
LADDER_TOP = (2, 4, 2 ** 10, 32) if TOY else (16, 4096, 2 ** 18, 1024)
#: The ROADMAP's pre-IR wall-time callout for the p = 2**20 point.
LADDER_BASELINE_SECONDS = 20.0

#: (c, d, m, n) for the verify-overhead probe.
VERIFY_SPEC = (2, 4, 2 ** 10, 32) if TOY else (2, 32, 2 ** 14, 256)
#: Acceptance bar: a verified capture (``debug=True``) must stay within
#: this factor of a raw capture.  The verifier is a single O(ops) pass
#: (measured ~1.3x at both sizes); 3x leaves slack for loaded runners
#: while still catching an accidental quadratic or per-op allocation.
MAX_VERIFY_OVERHEAD = 3.0

#: (c, d, m, n) for the numeric subcube-replay probe (d/c = 16 subcubes).
NUMERIC = (2, 8, 2 ** 10, 16) if TOY else (2, 32, 2 ** 14, 64)
#: Toy sizes check identity only; per-call overhead decides their timing.
MIN_NUMERIC_SPEEDUP = 0.0 if TOY else 1.5


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


def _run_panels(compiled: bool):
    c, d, m, n, b = PANELS
    vm = VirtualMachine(c * c * d)
    g = Grid3D.tunable(vm, c, d)
    a = DistMatrix.symbolic(g, m, n)
    if compiled:
        ca_panel_cqr2(vm, a, b)
    else:
        with compiled_replay_disabled():
            ca_panel_cqr2(vm, a, b)
    return vm


def bench_panels_compiled_replay(benchmark):
    """Panel-blocked CA-CQR2: compiled replay vs the per-panel loop."""
    c, d, m, n, b = PANELS
    p = c * c * d
    # Cold caches: the compiled timing includes capture + specialize.
    _panel_cqr2_program.cache_clear()
    _panel_update_program.cache_clear()

    start = time.perf_counter()
    vm_fast = _run_panels(compiled=True)
    fast_seconds = time.perf_counter() - start
    benchmark(lambda: _run_panels(compiled=True))

    start = time.perf_counter()
    vm_slow = _run_panels(compiled=False)
    loop_seconds = time.perf_counter() - start

    assert vm_fast.report() == vm_slow.report(), (
        "compiled panels replay drifted from the loop path")
    speedup = loop_seconds / fast_seconds

    lines = [
        f"panels compiled replay @ p={p} (c={c}, d={d}, {m}x{n}, b={b}, "
        f"{n // b} panels)",
        f"  per-panel Python loop  : {loop_seconds:.4f} s",
        f"  compiled replay (cold) : {fast_seconds:.4f} s",
        f"  speedup                : {speedup:.1f}x (bar: >= {MIN_PANEL_SPEEDUP}x)",
    ]
    archive("bench_schedule_compile_panels", "\n".join(lines))
    _merge_json({"panels_replay": {
        "p": p, "c": c, "d": d, "m": m, "n": n, "b": b,
        "panels": n // b,
        "loop_seconds": loop_seconds,
        "compiled_seconds": fast_seconds,
        "speedup": speedup,
    }})
    assert speedup >= MIN_PANEL_SPEEDUP, (
        f"compiled panels replay only {speedup:.1f}x faster than the loop "
        f"(bar: {MIN_PANEL_SPEEDUP}x)")


def bench_symbolic_ladder_top(benchmark):
    """End-to-end symbolic CA-CQR2 at the p = 2**20 ladder top."""
    c, d, m, n = LADDER_TOP
    p = c * d * c
    spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(m, n),
                   c=c, d=d, mode="symbolic")
    session = Session()

    row = {}

    def ladder_top():
        start = time.perf_counter()
        result = session.run(spec)
        row.update({
            "p": p, "c": c, "d": d, "m": m, "n": n,
            "seconds": time.perf_counter() - start,
            "critical_path_time": result.report.critical_path_time,
        })
        return row

    benchmark(ladder_top)
    if not row:
        ladder_top()

    lines = [
        f"symbolic ca_cqr2 ladder top @ p={p} (c={c}, d={d}, {m}x{n})",
        f"  wall time : {row['seconds']:.3f} s "
        f"(pre-IR callout: ~{LADDER_BASELINE_SECONDS:.0f} s)",
        f"  T_cp      : {row['critical_path_time']:.5g}",
    ]
    archive("bench_schedule_compile_ladder", "\n".join(lines))
    _merge_json({"symbolic_ladder_top": row})
    assert row["critical_path_time"] > 0
    if not TOY:
        assert row["seconds"] < LADDER_BASELINE_SECONDS, (
            f"p=2^20 symbolic run took {row['seconds']:.1f}s; compiled "
            f"replay should land well under {LADDER_BASELINE_SECONDS:.0f}s")


def bench_replay_phase_interning(benchmark):
    """Replay interns each distinct phase once -- never once per op."""
    c, d, m, n, b = PANELS
    rec = ScheduleRecorder(c * c * d)
    g = Grid3D.tunable(rec, c, d)
    ca_panel_cqr2(rec, DistMatrix.symbolic(g, m, n), b)
    program = rec.program()
    bound = program.specialize(RankFamilyMap.identity(program.num_ranks))

    calls = [0]
    replays = [0]
    original = VirtualMachine._phase_id

    def counting_phase_id(self, phase):
        calls[0] += 1
        return original(self, phase)

    vm = VirtualMachine(program.num_ranks)

    def one_replay():
        replays[0] += 1
        bound.replay(vm)

    VirtualMachine._phase_id = counting_phase_id
    try:
        benchmark(one_replay)
    finally:
        VirtualMachine._phase_id = original

    per_replay = calls[0] / max(1, replays[0])
    lines = [
        f"replay phase interning ({len(program)} ops, "
        f"{len(program.phases)} distinct phases)",
        f"  _phase_id calls : {per_replay:.1f} per replay "
        f"(bar: <= {len(program.phases)} -- phases only, never per op)",
    ]
    archive("bench_schedule_compile_interning", "\n".join(lines))
    _merge_json({"phase_interning": {
        "ops": len(program), "phases": len(program.phases),
        "phase_id_calls_per_replay": per_replay,
    }})
    assert len(program) > len(program.phases), (
        "probe program too small to distinguish per-op from per-phase work")
    assert calls[0] <= replays[0] * len(program.phases), (
        f"{calls[0]} phase-table lookups over {replays[0]} replays of a "
        f"{len(program.phases)}-phase program: per-op string work crept in")


def bench_capture_verify_overhead(benchmark):
    """Verify-on-capture (``debug=True``) stays O(ops): bounded overhead.

    The analysis verifier (:mod:`repro.analysis`) runs a single pass
    over the compiled program when capture is asked to self-check --
    always on under the test suite's ``REPRO_SCHED_VERIFY=1``.  This
    probe pins the cost of that pass: a verified capture must stay
    within ``MAX_VERIFY_OVERHEAD`` of a raw one.
    """
    from repro.analysis.verifier import verify_program
    from repro.sched.capture import capture_run

    c, d, m, n = VERIFY_SPEC
    spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(m, n),
                   c=c, d=d, mode="symbolic")

    raw_seconds = verified_seconds = float("inf")
    result = None
    for _ in range(5):
        start = time.perf_counter()
        capture_run(spec, debug=False)
        raw_seconds = min(raw_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        result = capture_run(spec, debug=True)
        verified_seconds = min(verified_seconds, time.perf_counter() - start)
    benchmark(lambda: capture_run(spec, debug=True))

    program, _ = result
    start = time.perf_counter()
    findings = verify_program(program)
    verify_only_seconds = time.perf_counter() - start
    assert findings == [], findings

    ratio = verified_seconds / raw_seconds
    lines = [
        f"verify-on-capture overhead (ca_cqr2, c={c}, d={d}, {m}x{n}, "
        f"{len(program)} ops)",
        f"  raw capture       : {raw_seconds * 1e3:.2f} ms",
        f"  verified capture  : {verified_seconds * 1e3:.2f} ms",
        f"  verifier alone    : {verify_only_seconds * 1e3:.2f} ms",
        f"  overhead          : {ratio:.2f}x (bar: <= {MAX_VERIFY_OVERHEAD}x)",
    ]
    archive("bench_schedule_compile_verify", "\n".join(lines))
    _merge_json({"verify_overhead": {
        "c": c, "d": d, "m": m, "n": n, "ops": len(program),
        "raw_seconds": raw_seconds,
        "verified_seconds": verified_seconds,
        "verify_only_seconds": verify_only_seconds,
        "overhead": ratio,
    }})
    assert ratio <= MAX_VERIFY_OVERHEAD, (
        f"verified capture is {ratio:.2f}x a raw capture "
        f"(bar: {MAX_VERIFY_OVERHEAD}x) -- the verifier is no longer a "
        f"cheap single pass")


def _run_numeric(a: np.ndarray, compiled: bool):
    """One numeric CA-CQR2 of *a* on the ``NUMERIC`` grid; ``(s, result, vm)``."""
    c, d = NUMERIC[:2]
    vm = VirtualMachine(c * c * d)
    dist = DistMatrix.from_global(Grid3D.tunable(vm, c, d), a)
    mode = contextlib.nullcontext() if compiled else compiled_replay_disabled()
    start = time.perf_counter()
    with mode:
        result = ca_cqr2(vm, dist)
    return time.perf_counter() - start, result, vm


def _same_blocks(x: DistMatrix, y: DistMatrix) -> bool:
    return (x.blocks.keys() == y.blocks.keys()
            and all(np.array_equal(b.data, y.blocks[r].data)
                    for r, b in x.blocks.items()))


def bench_numeric_subcube_replay(benchmark):
    """Numeric CA-CQR2: numerics once + replayed charges vs the loop."""
    c, d, m, n = NUMERIC
    a = np.random.default_rng(0).standard_normal((m, n))
    _run_numeric(a, compiled=True)       # memoize the subcube programs
    fast_seconds, fast, vm_fast = min(
        (_run_numeric(a, compiled=True) for _ in range(3)),
        key=lambda run: run[0])
    loop_seconds, slow, vm_slow = min(
        (_run_numeric(a, compiled=False) for _ in range(3)),
        key=lambda run: run[0])
    benchmark(lambda: _run_numeric(a, compiled=True))

    assert _same_blocks(fast.q, slow.q), "compiled Q drifted from the loop"
    assert len(fast.r_subcubes) == len(slow.r_subcubes) == d // c
    assert all(_same_blocks(x, y)
               for x, y in zip(fast.r_subcubes, slow.r_subcubes)), (
        "compiled R drifted from the loop")
    assert vm_fast.report() == vm_slow.report(), (
        "compiled numeric replay charged differently from the loop")
    speedup = loop_seconds / fast_seconds

    lines = [
        f"numeric ca_cqr2 subcube replay @ p={c * c * d} (c={c}, d={d}, "
        f"{m}x{n}, {d // c} subcubes, best of 3)",
        f"  per-subcube loop : {loop_seconds:.4f} s",
        f"  compiled         : {fast_seconds:.4f} s",
        f"  speedup          : {speedup:.1f}x (bar: >= {MIN_NUMERIC_SPEEDUP}x)",
    ]
    archive("bench_schedule_compile_numeric", "\n".join(lines))
    _merge_json({"numeric_subcube_replay": {
        "c": c, "d": d, "m": m, "n": n,
        "loop_seconds": loop_seconds,
        "compiled_seconds": fast_seconds,
        "speedup": speedup,
    }})
    assert speedup >= MIN_NUMERIC_SPEEDUP, (
        f"compiled numeric CA-CQR2 only {speedup:.1f}x faster than the loop "
        f"(bar: {MIN_NUMERIC_SPEEDUP}x)")
