"""Planning, serving and symbolic runs never import scipy.

scipy backs one call, the numeric triangular inverse
(``kernels.cholesky._trinv_lower``), and costs more start-up than the
rest of ``import repro``.  One child process walks every scipy-free entry
point, checking ``sys.modules`` after each, then factors a matrix
numerically, which must load it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

CHILD = textwrap.dedent("""
    import contextlib
    import io
    import sys

    def unloaded(step):
        assert "scipy" not in sys.modules, f"{step} imported scipy"

    import repro
    for name in repro.__all__:
        getattr(repro, name)
    unloaded("import repro")

    from repro import MatrixSpec, RunSpec, Session, verify_qr
    session = Session(result_cache=None, plan_cache=None, sched_cache=None)
    assert session.plan(m=16384, n=64, procs=256).refined_count > 0
    unloaded("a refined Session.plan")

    run = session.run(RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64, 8),
                              c=2, d=4, mode="symbolic"))
    assert run.report.max_cost.flops > 0
    unloaded("a symbolic CA-CQR2 run")

    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["plan", "-m", "16384", "-n", "64", "-P", "256",
                     "--no-refine"]) == 0
    unloaded("repro plan --no-refine")

    from repro.serve import PlanServer
    server = PlanServer(session, workers=1, plan_cache_dir=None)
    server.start_background()
    server.stop()
    unloaded("a PlanServer start and stop")

    import numpy as np
    a = np.random.default_rng(0).standard_normal((64, 8))
    result = session.factor(a, algorithm="ca_cqr2", c=2, d=4)
    assert verify_qr(a, result.q, result.r).passed
    assert "scipy" in sys.modules, "a numeric factor ran without scipy"
""")


def test_only_numeric_factorization_loads_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
