"""A declarative campaign through one repro.Session, streamed and persisted.

Declares one Study -- every distinct executed algorithm across a
processor ladder -- and runs it through a Session that carries the
result cache and executor policy.  Completed rows stream to the terminal
*and* into a JSONL file as each point finishes, so:

* re-running this script is near-instant (rows resume from the JSONL,
  points from the session's on-disk result cache);
* killing it mid-campaign loses nothing -- the next run executes only
  the missing points and produces the identical final table.

Run:  PYTHONPATH=src python examples/engine_sweep.py
"""

from __future__ import annotations

import time

from repro import Session
from repro.study import executed_sweep_study

CACHE_DIR = ".repro-cache"
JSONL = "engine_sweep.jsonl"
M, N = 2048, 32
PROC_COUNTS = (4, 8, 16, 32)


def main() -> None:
    session = Session(machine="stampede2", result_cache=CACHE_DIR)
    study = executed_sweep_study(m=M, n=N, proc_counts=PROC_COUNTS,
                                 machine="stampede2")

    def progress(info) -> None:
        row = info.row
        status = (f"t_crit={row.values['seconds']:.4g}s" if row.ok
                  else "infeasible")
        print(f"  [{info.done:>2}/{info.total}] {row.point['algorithm']:<10} "
              f"P={row.point['procs']:<4} {status}")

    start = time.perf_counter()
    table = session.study(study, jsonl_path=JSONL, progress=progress)
    elapsed = time.perf_counter() - start

    print()
    print(f"{len(table)}-point campaign of {M} x {N} in {elapsed:.3f}s "
          f"(cache: {CACHE_DIR}, rows: {JSONL})")
    print(table.to_text())
    print()
    print("fastest algorithm per processor count:")
    for procs in PROC_COUNTS:
        rows = [r for r in table.filter(procs=procs).rows if r.ok]
        best = min(rows, key=lambda r: r.values["seconds"])
        print(f"  P={procs:<4} {best.point['algorithm']:<10} "
              f"{best.values['seconds']:.4g}s")


if __name__ == "__main__":
    main()
