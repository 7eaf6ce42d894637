"""The CholeskyQR family's screen, pinned bit for bit.

The planner ranks candidates by :meth:`Solver.screen_costs`.  This test
hashes ``float.hex`` of every ``(messages, words, flops)`` lane the
CA-CQR2 and 1D-CQR2 screens return over a fixed lattice -- every
``feasible_grids`` candidate at each ``(m, n, P)``, inverse depths 0-3 --
so a refactor of the closed forms behind the screen cannot move a bit of
it unnoticed.
"""

import hashlib

from repro.costmodel.params import STAMPEDE2
from repro.engine.registry import solver_for

MS = (2 ** 12, 2 ** 16, 2 ** 20, 2 ** 25, 3 * 2 ** 14)
NS = (8, 48, 64, 96, 256, 768, 2048)
PROCS = (8, 64, 512, 4096, 65536)
DEPTHS = (0, 1, 2, 3)

#: Recorded from the screen before its closed forms were folded into the
#: per-line tables; any change to a screened bit changes it.
DIGEST = "ae54d8d0bdbb3c9517062c265e96b1eeffc5547c2e94b1cd2aab539a0a8dec01"


def screen_digest() -> str:
    h = hashlib.sha256()
    for name in ("ca_cqr2", "cqr2_1d"):
        solver = solver_for(name)
        for m in MS:
            for n in NS:
                for procs in PROCS:
                    if m < n:
                        continue
                    cands = list(solver.plan_candidates(
                        m, n, procs, STAMPEDE2, (), DEPTHS))
                    if not cands:
                        continue
                    costs = solver.screen_costs(m, n, STAMPEDE2, cands)
                    h.update(f"{name} {m} {n} {procs}\n".encode())
                    for cand, lane in zip(cands, costs.T.tolist()):
                        h.update(cand.config.encode())
                        h.update(" ".join(float.hex(v) for v in lane).encode())
                        h.update(b"\n")
    return h.hexdigest()


def test_screen_bits_are_pinned():
    assert screen_digest() == DIGEST
