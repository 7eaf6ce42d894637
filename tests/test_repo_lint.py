"""The repo-invariant source lint (``tests/repo_lint.py``).

One or more cases per rule show what it flags, where (the rule's scope)
and what it lets pass; the last case runs the lint over ``src/repro``,
which must have zero findings.
"""

from __future__ import annotations

import pytest

from tests.repo_lint import (
    LINT_RULES,
    STACKED_STEP_FILES,
    lint_paths,
    lint_source,
)


#: Where each stacked step lives (``STACKED_STEP_FILES`` by path).
STACKED_STEP_PATHS = [
    "src/repro/core/mm3d.py", "src/repro/core/cfr3d.py",
    "src/repro/core/elementwise.py", "src/repro/core/cacqr.py",
    "src/repro/core/cqr_1d.py", "src/repro/core/shifted.py",
    "src/repro/core/panels_dist.py", "src/repro/baselines/tsqr.py",
    "src/repro/baselines/scalapack_qr.py"]


#: A public method of a ``_lock``-owning class mutating outside the lock.
UNLOCKED_MUTATION = (
    "import threading\n"
    "class Registry:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.entries = {}\n"
    "    def add(self, k, v):\n"
    "        self.entries[k] = v\n")


class TestLintRules:
    def test_lock_discipline_flags_unlocked_mutation(self):
        findings = lint_source(UNLOCKED_MUTATION, "src/repro/obs/fake.py")
        assert [f.rule for f in findings] == ["lint/lock-discipline"]

    def test_lock_discipline_accepts_locked_and_helper_mutation(self):
        src = (
            "import threading\n"
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.entries = {}\n"
            "    def add(self, k, v):\n"
            "        with self._lock:\n"
            "            self.entries[k] = v\n"
            "    def _insert(self, k, v):\n"
            "        self.entries[k] = v  # caller holds the lock\n")
        assert lint_source(src, "src/repro/obs/fake.py") == []

    def test_lockless_classes_are_not_checked(self):
        src = ("class Plain:\n"
               "    def set(self, v):\n"
               "        self.v = v\n")
        assert lint_source(src, "src/repro/obs/fake.py") == []

    def test_wallclock_flagged_only_in_core_scopes(self):
        src = ("import time\n"
               "def now():\n"
               "    return time.perf_counter()\n")
        findings = lint_source(src, "src/repro/vmpi/fake.py")
        assert [f.rule for f in findings] == ["lint/no-wallclock"]
        assert lint_source(src, "src/repro/obs/fake.py") == []

    @pytest.mark.parametrize("src", [
        "import dataclasses\nout = dataclasses.asdict(plan)\n",
        "import dataclasses\nkey = repr(dataclasses.astuple(machine))\n",
        "from dataclasses import asdict\nout = asdict(plan)\n",
        "from dataclasses import astuple as flat\nkey = flat(machine)\n",
    ])
    def test_deep_asdict_flagged_only_on_the_serving_path(self, src):
        findings = lint_source(src, "src/repro/plan/fake.py")
        assert [f.rule for f in findings] == ["lint/no-deep-asdict"]
        assert findings[0].loc == "src/repro/plan/fake.py:2"
        for scope in ("serve", "engine", "costmodel"):
            assert len(lint_source(src, f"src/repro/{scope}/fake.py")) == 1
        # Reporting code outside the per-request path keeps asdict.
        assert lint_source(src, "src/repro/experiments/fake.py") == []

    def test_flat_field_reads_pass(self):
        for src in ("import dataclasses\n"
                    "out = {f.name: getattr(p, f.name) "
                    "for f in dataclasses.fields(p)}\n",
                    "out = plan.asdict()\n",
                    "def asdict(x):\n    return {}\nout = asdict(p)\n"):
            assert lint_source(src, "src/repro/plan/fake.py") == [], src

    def test_stacked_step_paths_name_every_stacked_step(self):
        import os

        assert {os.path.basename(p) for p in STACKED_STEP_PATHS} == \
            STACKED_STEP_FILES
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for path in STACKED_STEP_PATHS:
            assert os.path.isfile(os.path.join(root, path)), path

    @pytest.mark.parametrize("path", STACKED_STEP_PATHS)
    @pytest.mark.parametrize("src", [
        "for y in range(g.dim_y):\n    pass\n",
        "for y in range(grid.dim_y):\n    pass\n",
        "ranks = [g.ranks[0, y, 0] for y in range(a.grid.dim_y)]\n",
    ])
    def test_row_axis_loop_flagged_in_stacked_steps(self, path, src):
        findings = lint_source(src, path)
        assert [f.rule for f in findings] == ["lint/no-per-rank-dict"]
        assert findings[0].loc == f"{path}:1"
        assert "range(<grid>.dim_y)" in findings[0].message

    def test_row_axis_loop_negatives(self):
        # Code outside the stacked steps keeps its loops.
        loop = "for y in range(grid.dim_y):\n    pass\n"
        for path in ("src/repro/core/panels.py",
                     "src/repro/vmpi/distmatrix.py",
                     "src/repro/baselines/caqr.py",
                     "src/repro/engine/mm3d.py"):
            assert lint_source(loop, path) == [], path
        # Other loops in the stacked steps pass.
        for src in ("for z in range(grid.dim_z):\n    pass\n",
                    "for k in coords:\n    pass\n",
                    "while todo:\n    todo.pop()\n",
                    "for idx in np.ndindex(*grid.dims):\n    pass\n"):
            assert lint_source(src, "src/repro/core/mm3d.py") == [], src

    def test_nested_row_axis_loop_flagged_once(self):
        src = ("for y in range(g.dim_y):\n"
               "    for y2 in range(g.dim_y):\n        pass\n")
        findings = lint_source(src, "src/repro/core/cacqr.py")
        assert [f.loc for f in findings] == ["src/repro/core/cacqr.py:1"]

    def test_parse_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert [f.rule for f in findings] == ["lint/parse-error"]

    def test_lint_paths_walks_files_and_dirs(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(UNLOCKED_MUTATION)
        assert [f.rule for f in lint_paths([str(tmp_path)])] == \
            ["lint/lock-discipline"]

    def test_missing_path_is_a_finding(self, tmp_path):
        missing = str(tmp_path / "absent")
        findings = lint_paths([missing, str(tmp_path)])
        assert [(f.rule, f.loc) for f in findings] == \
            [("lint/no-such-path", missing)]
        assert "lint/no-such-path" in LINT_RULES


class TestRepoSourcePassesItsOwnLint:
    def test_zero_findings_over_src_repro(self):
        assert lint_paths(["src/repro"]) == []
