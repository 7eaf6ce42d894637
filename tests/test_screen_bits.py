"""The planner's screen and rankings, pinned bit for bit.

The planner ranks candidates by :meth:`Solver.screen_costs`.  These tests
hash ``float.hex`` of every ``(messages, words, flops)`` lane the screens
return over a fixed lattice -- every candidate each solver enumerates at
each ``(m, n, P)``, inverse depths 0-3 and the default panel widths --
and every field of the full rankings ``Planner(refine=None).plan``
builds from them, so a refactor of the closed forms, the pricing or the
ranking behind the screen cannot move a bit of it unnoticed.
"""

import hashlib

from repro.costmodel.params import STAMPEDE2
from repro.engine.registry import solver_for
from repro.plan import Planner, ProblemSpec
from repro.plan.objective import Objective
from repro.plan.problem import default_block_sizes

MS = (2 ** 12, 2 ** 16, 2 ** 20, 2 ** 25, 3 * 2 ** 14)
NS = (8, 48, 64, 96, 256, 768, 2048)
PROCS = (8, 64, 512, 4096, 65536)
DEPTHS = (0, 1, 2, 3)

#: Recorded from the screen before its closed forms were folded into the
#: per-line tables; any change to a screened bit changes it.
DIGEST = "ae54d8d0bdbb3c9517062c265e96b1eeffc5547c2e94b1cd2aab539a0a8dec01"

#: The baselines' screens (TSQR, PGEQRF, CAQR) over the same lattice,
#: recorded before their batched closed forms were restacked.
BASELINE_DIGEST = (
    "beb03992dc494a0097ee98558e8b4235376310562ce29115b5c9ff4c3d61b78e")

#: Full screened rankings of :data:`RANKING_QUESTIONS`, recorded with
#: the baseline digest.
RANKING_DIGEST = (
    "ecf7810e1767ca555d0b72dffc844b1ecb1bca8d0c682bf36d78fd74dca760b4")

#: Planning questions over both machines, the three plain objectives, a
#: weighted one and a budgeted one (whose budget some plans miss).
RANKING_QUESTIONS = tuple(
    ProblemSpec(m=m, n=n, procs=procs, machine=machine, objective=objective)
    for m, n, procs in ((2 ** 16, 64, 64), (2 ** 20, 256, 512),
                        (3 * 2 ** 14, 96, 4096), (2 ** 13, 128, 8))
    for machine in ("stampede2", "blue-waters")
    for objective in ("time", "memory", "messages",
                      Objective.parse("time=1,memory=0.2"),
                      Objective.parse("time", ["memory<=2e5"])))


def screen_digest(names, block_sizes=lambda n: ()) -> str:
    h = hashlib.sha256()
    for name in names:
        solver = solver_for(name)
        for m in MS:
            for n in NS:
                for procs in PROCS:
                    if m < n:
                        continue
                    cands = list(solver.plan_candidates(
                        m, n, procs, STAMPEDE2, block_sizes(n), DEPTHS))
                    if not cands:
                        continue
                    costs = solver.screen_costs(m, n, STAMPEDE2, cands)
                    h.update(f"{name} {m} {n} {procs}\n".encode())
                    for cand, lane in zip(cands, costs.T.tolist()):
                        h.update(cand.config.encode())
                        h.update(" ".join(float.hex(v) for v in lane).encode())
                        h.update(b"\n")
    return h.hexdigest()


def ranking_digest() -> str:
    h = hashlib.sha256()
    planner = Planner(refine=None)
    for problem in RANKING_QUESTIONS:
        h.update(f"{problem.m} {problem.n} {problem.procs} {problem.machine} "
                 f"{problem.objective}\n".encode())
        for plan in planner.plan(problem).plans:
            h.update(f"{plan.algorithm} {plan.config} "
                     f"{float.hex(plan.modeled_seconds)} {plan.pareto} "
                     f"{plan.within_budget}\n".encode())
    return h.hexdigest()


def test_screen_bits_are_pinned():
    assert screen_digest(("ca_cqr2", "cqr2_1d")) == DIGEST


def test_baseline_screen_bits_are_pinned():
    assert screen_digest(("tsqr", "scalapack", "caqr"),
                         default_block_sizes) == BASELINE_DIGEST


def test_rankings_are_pinned():
    assert ranking_digest() == RANKING_DIGEST
