"""Every public ``src/repro`` definition is reached from outside the tests.

A public top-level function or class, or a public method of a public
top-level class, counts as reached when its name occurs as a name, an
attribute or a string constant (outside ``__all__``) in ``src/repro``,
``examples/`` or ``benchmarks/`` (its ``test_*.py`` files excluded).  The
scan goes by name only, so it errs towards "reached": a method that
shares its name with a used attribute passes.

A definition that only tests reach is deleted together with the tests
that test only it, or it is kept on purpose and listed in :data:`KEPT`
with the reason.  One case per module keeps a failure local to the file
that grew the unreached definition.
"""

import ast
import collections
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Definitions only tests reach, each kept for the reason given.
KEPT = {
    "cqr_3d_asymptotic": "Table I row, a paper claim",
    "ca_cqr_optimal_asymptotic": "Table I row, a paper claim",
    "VirtualMachine.phase_names": "public accessor the CLI and CI read",
    "panel_cqr2": "in repro.__all__, the library entry point",
    "ca_shifted_cqr3": "in repro.__all__; sCQR3 is ROADMAP item 8's solver",
    "use_session": "in repro.__all__, the library entry point",
    "cross_check": "in repro.__all__, the library entry point",
    "PlanResult.pareto_frontier": "README-documented API",
    "ResultTable.pivot": "README-documented API",
    "ResultTable.save": "writes the format the public ResultTable.load reads",
    "Session.spec_key": "public Session method, the result-cache key",
    "Session.run_batch": "README-documented API; CI fills the result cache "
                         "through it",
    "current_observer": "read side of use_observer in repro.obs.__all__",
    "verify_binding": "a correctness check whose rules `repro check` lists",
    "caqr_cost": "scalar form the costmodel.batch screens are held to",
    "tsqr_cost": "scalar form the costmodel.batch screens are held to",
    "breakdown": "input of Plan.explain (ROADMAP item 7)",
    "TimeBreakdown.dominant": "input of Plan.explain (ROADMAP item 7)",
    "local_syrk": "per-block oracle of the stacked 1D Gram",
    "compiled_replay_disabled": "the deliberate loop oracle switch",
    "RecordingMachine": "the deliberate replay oracle",
    "replay": "the deliberate replay oracle",
    "ReferenceMachine.clock_of": "state accessor of the loop oracle",
    "ReferenceMachine.ledger_of": "state accessor of the loop oracle",
    "VirtualMachine.clock_of": "state accessor the oracle tests compare through",
    "VirtualMachine.ledger_of": "state accessor the oracle tests compare through",
    "ScheduleRecorder.num_ops": "state accessor the oracle tests compare through",
    "capture_run": "the Schedule IR's test oracle (ROADMAP item 1)",
}


def _public_definitions(tree: ast.Module):
    """``(qualified name, line)`` of every public top-level def and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, kinds[:2])
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub.lineno


def _names_used(tree: ast.Module) -> collections.Counter:
    exported = {id(node)
                for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)
                for node in ast.walk(stmt.value)}
    used: collections.Counter = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            used[node.value] += 1
    return used


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@functools.lru_cache(maxsize=None)
def _reached() -> collections.Counter:
    paths = [*SRC.rglob("*.py"), *(ROOT / "examples").rglob("*.py"),
             *(ROOT / "benchmarks").rglob("*.py")]
    used: collections.Counter = collections.Counter()
    for path in paths:
        if not path.name.startswith("test_"):
            used.update(_names_used(_parse(path)))
    return used


def _unreached(path: pathlib.Path):
    reached = _reached()
    return [(name, line) for name, line in _public_definitions(_parse(path))
            if name.rsplit(".", 1)[-1] not in reached and name != "main"]


MODULES = sorted(str(p.relative_to(SRC.parent)) for p in SRC.rglob("*.py")
                 if any(True for _ in _public_definitions(_parse(p))))


@pytest.mark.parametrize("module", MODULES)
def test_public_definitions_are_reached(module):
    path = SRC.parent / module
    stray = [f"{module}:{line} {name}" for name, line in _unreached(path)
             if name not in KEPT]
    assert not stray, ("public definitions only tests reach (delete them, "
                       "or list them in KEPT with a reason): "
                       + ", ".join(stray))


def test_every_kept_definition_is_still_unreached():
    unreached = {name for path in SRC.rglob("*.py")
                 for name, _ in _unreached(path)}
    assert sorted(set(KEPT) - unreached) == []
