"""``compare PARENT_DIR CHANGE_DIR``: judge a change against its parent.

For every (end-to-end metric, workload) pair this applies the rule of
the choosing-metrics guide, section 8, with the bounds declared in
``BENCHMARK.json``:

* **improved** -- the change wins at least nine tenths of the run pairs
  (ties count for neither) and the medians differ, in the better
  direction, by more than the parent's inter-quartile distance;
* **regressed** -- the change's median is worse than the parent's by
  more than the bound (when the parent's spread exceeds the bound, only
  if every change run is worse than every parent run);
* **unresolved** -- the parent's spread is wider than the bound and
  neither of the above holds, unless every change run is better than
  every parent run (then **unchanged**);
* **unchanged** -- otherwise.

Runs pair up in seed order (by seed when both sides used the same
seeds).  Exit status: 0 when nothing regressed, 1 on any
regression or a rise in a workload's failed/attempted rate, 2 when the
runs cannot be compared (none found, or their environments differ).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Sequence, Tuple

from .harness import repo_root
from .stats import quartiles

#: Environment fields two compared runs must share (the commit may differ).
ENV_KEYS = ("nproc", "python", "numpy", "scipy", "llc_bytes", "blas_threads",
            "machine")
GAIN_SHARE = 0.9


def load_runs(directory: str) -> List[dict]:
    """Every untraced run file in *directory*, ordered by seed then name."""
    runs = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as fh:
            run = json.load(fh)
        if not run.get("trace") and "result" in run:
            runs.append(run)
    return sorted(runs, key=lambda run: run["env"]["seed"])


def declared_metrics() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of the end-to-end metrics."""
    with open(os.path.join(repo_root(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> dict:
    """The section 8 judgement of one (metric, workload) pair."""
    sign = 1.0 if better == "lower" else -1.0    # positive means worse
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if share >= GAIN_SHARE and -sign * (c_med - p_med) > p_q3 - p_q1:
        label = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        label = "regressed"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "worse": worse, "spread": spread, "won": share, "pairs": len(pairs),
            "verdict": label}


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def failure_rate(runs: Sequence[dict]) -> float:
    attempted = sum(run["result"]["attempted"] for run in runs)
    return sum(run["result"]["failed"] for run in runs) / max(attempted, 1)


def main_compare(parent_dir: str, change_dir: str) -> int:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    if not parent or not change:
        print("error: both directories need untraced run files", file=sys.stderr)
        return 2
    envs = {json.dumps({k: run["env"].get(k) for k in ENV_KEYS}, sort_keys=True)
            for run in parent + change}
    if len(envs) > 1:
        print("error: the runs come from different environments:\n  "
              + "\n  ".join(sorted(envs)), file=sys.stderr)
        return 2
    metrics = declared_metrics()
    status = 0
    print(f"{'workload':<9} {'metric':<12} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'worse':>8} {'won':>6}  verdict")
    for workload in sorted({run["workload"] for run in parent + change}):
        mine = [r for r in parent if r["workload"] == workload]
        theirs = [r for r in change if r["workload"] == workload]
        if not mine or not theirs:
            print(f"{workload:<9} (runs on one side only; skipped)")
            continue
        for name, (better, bound) in metrics.items():
            judged = verdict([r["result"]["metrics"][name]["value"] for r in mine],
                             [r["result"]["metrics"][name]["value"] for r in theirs],
                             better, bound)
            print(f"{workload:<9} {name:<12} {_cell(judged['parent']):<32} "
                  f"{_cell(judged['change']):<32} {judged['worse']:>+8.1%} "
                  f"{judged['won']:>6.0%}  {judged['verdict']} (bound "
                  f"{bound:.0%}, parent spread {judged['spread']:.1%})")
            if judged["verdict"] == "regressed":
                status = 1
        before, after = failure_rate(mine), failure_rate(theirs)
        if after > before:
            print(f"{workload:<9} failed ops rose: {before:.2%} -> {after:.2%}")
            status = 1
    return status
