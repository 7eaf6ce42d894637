"""Wall-clock win of the engine's batch runner on a multi-point sweep.

The batch runner (:meth:`repro.Session.run_batch`) executes a list of
RunSpecs with process parallelism and a fingerprint-keyed on-disk result
cache.  This bench runs the same >= 8-point sweep three ways -- serial
``run()`` loop, parallel batch, and warm-cache batch -- prints the
wall-clock table, and asserts the acceptance claim: parallelism + cache
beat the serial loop by >= 2x (the warm-cache pass alone is typically
two orders of magnitude faster, since every point collapses to one disk
read).
"""

from __future__ import annotations

import shutil
import tempfile

from benchmarks.common import archive, timed

from repro import Session
from repro.engine import MatrixSpec, RunSpec

# A 12-point sweep: three algorithms x four scales, big enough that each
# point costs real simulation time.
SPECS = [
    RunSpec(algorithm=alg, matrix=MatrixSpec(1024, 32, seed=seed), procs=procs)
    for seed, (alg, procs) in enumerate(
        (alg, procs)
        for alg in ("ca_cqr2", "cqr2_1d", "tsqr")
        for procs in (4, 8, 16, 32)
    )
]


def bench_engine_batch_speedup(benchmark):
    cache_dir = tempfile.mkdtemp(prefix="repro-engine-bench-")
    session = Session(result_cache=cache_dir)
    try:
        t_serial, serial = timed(lambda: [session.run(s) for s in SPECS])
        t_parallel, _ = timed(lambda: session.run_batch(SPECS))
        t_cached, cached = benchmark(lambda: timed(
            lambda: session.run_batch(SPECS)))

        text = "\n".join([
            f"engine batch runner: {len(SPECS)}-point sweep "
            "(3 algorithms x 4 scales, 1024 x 32)",
            "=" * 60,
            f"serial run() loop        : {t_serial:9.4f} s",
            f"parallel batch (cold)    : {t_parallel:9.4f} s  "
            f"({t_serial / t_parallel:5.1f}x)",
            f"parallel batch (cached)  : {t_cached:9.4f} s  "
            f"({t_serial / t_cached:5.1f}x)",
        ])
        archive("engine_batch_speedup", text)

        # Results are identical whichever path produced them.
        for a, b in zip(serial, cached):
            assert a.report.critical_path_time == b.report.critical_path_time
        # The acceptance claim: parallelism + cache >= 2x on >= 8 points.
        assert len(SPECS) >= 8
        assert t_cached * 2.0 <= t_serial
        # Sanity-bound the cold batch path too: it may not beat the serial
        # loop on single-core runners (the pool falls back to serial), but
        # it must never be pathologically slower than it.
        assert t_parallel <= t_serial * 2.0 + 0.5
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
