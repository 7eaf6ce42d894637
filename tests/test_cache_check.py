"""The plan-cache structural check and the ``repro cache check`` sweep.

* semantically invalid cache entries (valid pickles, wrong structure)
  load as misses under ``cache.<name>.invalid``;
* the sweep reports every unreadable, wrong-type or structurally
  invalid entry of both session caches, and ``repro cache check`` exits
  non-zero exactly when there are findings;
* ``repro check`` and its options are gone.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import main
from repro.engine import ResultCache
from repro.obs.metrics import get_registry
from repro.plan.cache import (
    Finding,
    PlanCache,
    check_cache_dir,
    has_errors,
    verify_plan_result,
)
from repro.plan.planner import PlanResult
from repro.plan.problem import ProblemSpec


def empty_result():
    return PlanResult(problem=ProblemSpec(m=4096, n=64, procs=16), plans=[],
                      num_candidates=0)


def store_raw(path, value):
    with open(path, "wb") as fh:
        pickle.dump(value, fh)


# -- invalid cache entries read as misses -------------------------------------------


class TestInvalidCacheEntriesAreMisses:
    def test_invalid_entry_is_a_miss_in_bulk(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        cache.store("good", empty_result())
        store_raw(cache.path("bad"), {"not": "a plan result"})
        found = cache.load_many(["good", "bad", "absent"])
        assert set(found) == {"good"}

    def test_plan_cache_rejects_structural_garbage(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        store_raw(cache.path("bad"), {"not": "a plan result"})
        before = get_registry().counter("cache.plan.invalid").value
        assert cache.load("bad") is None
        assert get_registry().counter("cache.plan.invalid").value == \
            before + 1
        cache.store("good", empty_result())
        assert cache.load("good") == empty_result()

    def test_plan_result_structure_rules(self):
        assert verify_plan_result({"nope": 1}) != []
        assert verify_plan_result(empty_result()) == []
        skewed = empty_result()
        skewed.num_candidates = -2
        assert has_errors(verify_plan_result(skewed))

    def test_plan_sweep_flags_wrong_shapes(self, tmp_path):
        store_raw(PlanCache(str(tmp_path)).path("bad"), ["not", "a", "plan"])
        findings = check_cache_dir(str(tmp_path), PlanCache.suffix, None,
                                   verify_plan_result)
        assert [(f.rule, f.loc) for f in findings] == \
            [("plan/structure", "bad.plan.pkl:entry")]


class TestFindings:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Finding("r", "loc", "msg", severity="fatal")

    def test_json_form(self):
        f = Finding("cache/unreadable", "k.plan.pkl", "torn")
        assert f.to_dict() == {"rule": "cache/unreadable",
                               "loc": "k.plan.pkl", "message": "torn",
                               "severity": "error"}


# -- repro cache check --------------------------------------------------------------


@pytest.fixture
def caches(tmp_path, monkeypatch):
    """Both session caches under *tmp_path*, as the environment names them."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "r"))
    monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path / "p"))
    return ResultCache(str(tmp_path / "r")), PlanCache(str(tmp_path / "p"))


class TestCacheCheckCLI:
    def test_clean_caches_exit_zero(self, caches, capsys):
        caches[1].store("k", empty_result())
        assert main(["cache", "check"]) == 0
        assert capsys.readouterr().out == "0 finding(s)\n"
        assert main(["cache", "check", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == \
            {"findings": [], "count": 0}

    def test_poisoned_caches_exit_nonzero(self, caches, capsys):
        results, plans = caches
        with open(plans.path("torn"), "wb") as fh:
            fh.write(b"\x80\x04 not a pickle")
        store_raw(plans.path("bad"), ["not", "a", "plan"])
        store_raw(results.path("odd"), {"not": "a run"})
        assert main(["cache", "check", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [(f["rule"], f["loc"]) for f in report["findings"]] == [
            ("cache/unreadable", "torn.plan.pkl"),
            ("cache/wrong-type", "odd.run.pkl"),
            ("plan/structure", "bad.plan.pkl:entry")]
        assert report["count"] == 3
        assert main(["cache", "check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "findings"
        assert lines[1].split() == ["severity", "rule", "loc", "message"]
        assert lines[-1] == "3 finding(s)"

    def test_a_flag_narrows_the_sweep(self, caches, capsys):
        store_raw(caches[0].path("odd"), {"not": "a run"})
        assert main(["cache", "check", "--plan"]) == 0
        assert capsys.readouterr().out == "0 finding(s)\n"
        assert main(["cache", "check", "--cache-dir",
                     caches[0].cache_dir]) == 1
        assert "cache/wrong-type" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["check"], ["check", "--rules"],
        ["cache", "check", "--rules"],
        ["cache", "check", "--result-dir", "r"],
        ["cache", "check", "--plan-dir", "p"]],
        ids=["check", "check-rules", "rules", "result-dir", "plan-dir"])
    def test_repro_check_and_its_options_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err
