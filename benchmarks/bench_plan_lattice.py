"""Lattice planner: one batched search over a whole planning campaign.

Not a paper artifact: this pins the PR-8 tentpole claim -- planning an
entire (m, n, P, machine, objective) *campaign* through
:meth:`repro.plan.Planner.plan_many` amortizes everything the per-point
loop repeats, while staying bit-identical plan-for-plan.  The campaign
is the paper's own question asked at scale: where does each algorithm
win as the aspect ratio, the processor count, the machine balance, and
the objective weighting move?

The probe plans a ~120-point crossover lattice -- aspect ratios x
processor counts x two machine presets x a ladder of objective
weightings (a trade-surface sweep: how does the winner move as memory
or message pressure grows?) -- three ways:

1. **Per-point loop** (the baseline): ``planner.plan(p)`` once per
   point, exactly what a user script would write.  ``plan`` is the
   one-point case of ``plan_many``, so this is the same search run on
   one point at a time: nothing is shared across points.
2. **Lattice, cold**: one ``planner.plan_many(problems)`` call.  The
   acceptance bar: >= 5x end-to-end over the loop, with every ranked
   plan field bit-identical.
3. **Lattice, warm**: ``plan_many`` against the plan cache it just
   populated -- one bulk directory probe serves the whole campaign.

``top_k=12`` refines essentially every symbolic candidate at these
sizes -- the deep-exploration setting a trade-surface campaign wants,
and the regime where the lattice's deduplicated refinement (one
symbolic run per distinct configuration and machine, shared by every
objective) pays most.

Results are written to ``BENCH_planlattice.json`` at the repository
root and archived under ``benchmarks/results/``.  ``REPRO_BENCH_TOY=1``
(the CI smoke job) shrinks the lattice to a handful of points and
relaxes the speedup bar to "no slower than the loop".
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import tempfile
import time

from benchmarks.common import archive
from repro.plan import Objective, Planner, ProblemSpec

TOY = bool(os.environ.get("REPRO_BENCH_TOY"))
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_planlattice.json")

#: Objective ladder: the three pure metrics plus weighted trade-offs
#: sweeping memory (and message) pressure.  Every added weighting costs
#: the loop a full refinement pass per point; the lattice only re-ranks.
OBJECTIVES = (["time", "memory"] if TOY else [
    "time", "memory", "messages",
    "time=1,memory=0.02", "time=1,memory=0.05", "time=1,memory=0.1",
    "time=1,memory=0.2", "time=1,memory=0.5",
    "time=1,messages=0.001", "time=1,memory=0.1,messages=0.0005",
])
ASPECTS = (1, 4) if TOY else (4, 16, 64)
PROCS = (16,) if TOY else (16, 64)
MACHINES = ("stampede2", "blue-waters")
N = 32 if TOY else 64
TOP_K = 4 if TOY else 12
MIN_SPEEDUP = 1.0 if TOY else 5.0


def _problems():
    return [ProblemSpec(m=N * aspect, n=N, procs=procs, machine=machine,
                        mode="symbolic", top_k=TOP_K,
                        objective=Objective.parse(objective))
            for aspect in ASPECTS for procs in PROCS
            for machine in MACHINES for objective in OBJECTIVES]


def _assert_identical(loop_results, lattice_results) -> None:
    """Every ranked plan of every point, field for field."""
    assert len(loop_results) == len(lattice_results)
    for point, (a, b) in enumerate(zip(loop_results, lattice_results)):
        assert len(a.plans) == len(b.plans), f"point {point}: plan count"
        for pa, pb in zip(a.plans, b.plans):
            assert dataclasses.asdict(pa) == dataclasses.asdict(pb), (
                f"point {point}: {pa.algorithm} {pa.config} diverged")


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


def bench_plan_lattice_campaign(benchmark):
    """Cold campaign: one batched search vs. the per-point planning loop."""
    problems = _problems()

    start = time.perf_counter()
    loop_planner = Planner()
    loop_results = [loop_planner.plan(p) for p in problems]
    loop_seconds = time.perf_counter() - start

    def cold_lattice():
        return Planner().plan_many(problems)

    lattice_results = benchmark(cold_lattice)
    if lattice_results is None:          # pytest-benchmark returns the value
        lattice_results = cold_lattice()
    start = time.perf_counter()
    planner = Planner()
    lattice_results = planner.plan_many(problems)
    lattice_seconds = time.perf_counter() - start

    _assert_identical(loop_results, lattice_results)
    stats = planner.last_lattice_stats
    speedup = loop_seconds / max(lattice_seconds, 1e-12)

    lines = [
        f"lattice campaign: {len(problems)} points "
        f"({len(ASPECTS)} aspects x {len(PROCS)} proc counts x "
        f"{len(MACHINES)} machines x {len(OBJECTIVES)} objectives, "
        f"n={N}, top_k={TOP_K})",
        f"  per-point loop : {loop_seconds:.3f} s",
        f"  lattice (cold) : {lattice_seconds:.3f} s ({speedup:.2f}x)",
        f"  screen reuse   : {stats.screen_reuse:.2f}x "
        f"({stats.screened_candidates} candidates priced as "
        f"{stats.priced_lanes} lanes in {stats.price_segments} segments)",
        f"  refine dedup   : {stats.refine_dedup:.2f}x "
        f"({stats.refine_jobs} jobs -> {stats.refine_runs} refine_runs)",
        "  rankings       : bit-identical, every plan of every point",
    ]
    archive("bench_plan_lattice", "\n".join(lines))
    _merge_json({"campaign": {
        "points": len(problems),
        "aspects": list(ASPECTS), "procs": list(PROCS),
        "machines": list(MACHINES), "objectives": len(OBJECTIVES),
        "n": N, "top_k": TOP_K,
        "loop_seconds": loop_seconds,
        "lattice_seconds": lattice_seconds,
        "speedup": speedup,
        "bit_identical": True,
        "stats": stats.to_dict(),
    }})
    assert stats.refine_dedup > 1.0, (
        f"refinement deduplicated nothing (factor {stats.refine_dedup:.2f})")
    assert stats.screen_reuse > 1.0, (
        f"screening shared nothing across machines "
        f"(reuse {stats.screen_reuse:.2f})")
    assert speedup >= MIN_SPEEDUP, (
        f"lattice {speedup:.2f}x vs per-point loop "
        f"(bar: >= {MIN_SPEEDUP}x)")


def bench_plan_lattice_warm(benchmark):
    """Warm campaign: a populated plan cache serves the whole lattice."""
    problems = _problems()
    cache_dir = tempfile.mkdtemp(prefix="repro-lattice-bench-")
    try:
        planner = Planner(cache_dir=cache_dir)
        start = time.perf_counter()
        cold = planner.plan_many(problems)
        cold_seconds = time.perf_counter() - start

        def warm_lattice():
            return planner.plan_many(problems)

        warm = benchmark(warm_lattice)
        if warm is None:
            warm = warm_lattice()
        start = time.perf_counter()
        warm = planner.plan_many(problems)
        warm_seconds = time.perf_counter() - start

        assert all(r.from_cache for r in warm)
        assert not any(r.from_cache for r in cold)
        assert planner.last_lattice_stats.cache_hits == len(problems)
        for a, b in zip(cold, warm):
            assert [p.config for p in a.plans] == [p.config for p in b.plans]
        speedup = cold_seconds / max(warm_seconds, 1e-12)
        lines = [
            f"lattice warm serve: {len(problems)} points",
            f"  cold campaign : {cold_seconds:.3f} s",
            f"  warm campaign : {warm_seconds:.4f} s ({speedup:,.0f}x, "
            "one bulk cache probe)",
        ]
        archive("bench_plan_lattice_warm", "\n".join(lines))
        _merge_json({"warm": {
            "points": len(problems),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
        }})
        assert speedup > MIN_SPEEDUP, (
            f"warm lattice only {speedup:.2f}x over cold")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
