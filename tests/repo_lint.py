"""The repo-invariant source lint: project rules ruff cannot express.

An AST pass over the repository's own source enforcing invariants that
are load-bearing for correctness here but meaningless to a generic
linter.  It is test tooling, not part of the package:
``tests/test_repo_lint.py`` holds each rule to its cases and runs it
over ``src/repro`` on every tier-1 run.

``lint/lock-discipline``
    In a class whose ``__init__`` creates ``self._lock``, every *public*
    method must mutate instance attributes only inside ``with
    self._lock`` -- the shared-state race heuristic for the types the
    serve layer drives from N worker threads
    (:class:`~repro.obs.metrics.MetricsRegistry`,
    :class:`~repro.serve.cache.LRUPlanCache`, ...).  Underscore-prefixed
    helpers are exempt (the repository's caller-holds-the-lock
    convention), as is ``__init__`` (no concurrent aliases yet).

``lint/no-wallclock``
    No wall-clock reads (``time.time`` / ``perf_counter`` /
    ``monotonic`` / ``datetime.now`` ...) inside ``vmpi``, ``sched``, or
    ``costmodel`` -- the simulation core must be a pure function of its
    inputs, or captured programs and replayed reports stop being
    deterministic and cacheable.

``lint/no-per-rank-dict``
    In the stacked steps (:data:`STACKED_STEP_FILES` inside ``core``,
    ``vmpi`` or ``baselines``) no loop or comprehension over
    ``range(<grid>.dim_y)``: their numerics are whole-array operations on
    the stacked blocks of :class:`~repro.vmpi.distmatrix.DistMatrix`, and
    a per-rank loop there is the pattern the stacked layout replaced.
    ``dim_y`` is the row axis, the one that grows with ``P`` (``d`` ranks
    on a ``c x d x c`` grid, all ``P`` on 1D-CQR's ``1 x P x 1``).  The
    grid has no per-rank iteration API to loop over otherwise.

``lint/no-deep-asdict``
    No ``dataclasses.asdict`` / ``astuple`` calls (also imported by
    name) inside ``plan``, ``serve``, ``engine`` or ``costmodel``: both
    recursively deep-copy every field, and on the planning and serving
    path their output only becomes JSON or a cache key.  Read the fields
    flat (``{f.name: getattr(obj, f.name) for f in
    dataclasses.fields(obj)}``) and copy only what is mutable.

All rules report as :class:`~repro.plan.cache.Finding` with
``loc = "path:line"``, like the ``repro cache check`` sweep.  A path
that does not exist reports ``lint/no-such-path`` (``loc`` is the path),
so a lint that checked nothing never passes.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.plan.cache import Finding

#: Every lint rule with a one-line description.
LINT_RULES = {
    "lint/parse-error": "source file parses as Python",
    "lint/lock-discipline": "attributes of a _lock-owning class are only mutated under `with self._lock` in public methods",
    "lint/no-such-path": "every path given to the lint exists",
    "lint/no-wallclock": "no wall-clock reads inside vmpi/sched/costmodel",
    "lint/no-per-rank-dict": "no range(<grid>.dim_y) loops in the stacked steps of core/vmpi/baselines",
    "lint/no-deep-asdict": "no deep-copying dataclasses.asdict/astuple calls inside plan/serve/engine/costmodel",
}

#: Directories whose files must stay wall-clock-free (deterministic
#: simulation core: machine-state in, machine-state out).
WALLCLOCK_SCOPES = frozenset({"vmpi", "sched", "costmodel"})

#: Directories holding the stacked steps.
PER_RANK_DICT_SCOPES = frozenset({"core", "vmpi", "baselines"})

#: Directories on the per-request planning and serving path, where a
#: dataclass is serialized or hashed by a flat field read.
DEEP_ASDICT_SCOPES = frozenset({"plan", "serve", "engine", "costmodel"})

_DEEP_COPY_FUNCS = frozenset({"asdict", "astuple"})

#: Modules (in those directories) whose numerics run on stacked arrays:
#: no per-rank loops.
STACKED_STEP_FILES = frozenset({"mm3d.py", "cfr3d.py", "elementwise.py",
                                "cacqr.py", "cqr_1d.py", "shifted.py",
                                "panels_dist.py", "tsqr.py",
                                "scalapack_qr.py"})

_TIME_ATTRS = frozenset({"time", "perf_counter", "monotonic", "process_time",
                         "time_ns", "perf_counter_ns", "monotonic_ns",
                         "process_time_ns"})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _loc(path: str, node: ast.AST) -> str:
    return f"{path}:{getattr(node, 'lineno', 0)}"


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The base identifier of a dotted expression (``time.x`` -> ``time``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_self_attr(node: ast.expr, attr: Optional[str] = None) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and (attr is None or node.attr == attr))


# -- lint/no-wallclock ------------------------------------------------------------


def _in_scope(path: str, scopes: frozenset) -> bool:
    parts = set(os.path.normpath(path).split(os.sep))
    return bool(parts & scopes)


def _lint_wallclock(tree: ast.Module, path: str) -> List[Finding]:
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        base = _terminal_name(node.func.value)
        hit = ((attr in _TIME_ATTRS and base == "time")
               or (attr in _DATETIME_ATTRS and base == "datetime"))
        if hit:
            findings.append(Finding(
                "lint/no-wallclock", _loc(path, node),
                f"wall-clock call {base}.{attr}() in the deterministic "
                f"simulation core; thread timestamps in from the caller"))
    return findings


# -- lint/no-deep-asdict ----------------------------------------------------------


def _lint_deep_asdict(tree: ast.Module, path: str) -> List[Finding]:
    # Names bound by ``from dataclasses import asdict [as x]``.
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "dataclasses"
                for alias in node.names if alias.name in _DEEP_COPY_FUNCS}
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in _DEEP_COPY_FUNCS
                and _terminal_name(func.value) == "dataclasses"):
            name = func.attr
        elif isinstance(func, ast.Name) and func.id in imported:
            name = imported[func.id]
        else:
            continue
        findings.append(Finding(
            "lint/no-deep-asdict", _loc(path, node),
            f"dataclasses.{name}() deep-copies every field; read the "
            f"fields flat (dataclasses.fields) and copy only mutable ones"))
    return findings


# -- lint/no-per-rank-dict --------------------------------------------------------


def _is_row_axis_range(node: ast.expr) -> bool:
    """``range(<grid>.dim_y)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "dim_y")


_LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _loop_iters(node: ast.AST) -> List[ast.expr]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    return [gen.iter for gen in getattr(node, "generators", ())]


def _lint_per_rank_dict(tree: ast.Module, path: str) -> List[Finding]:
    if os.path.basename(path) not in STACKED_STEP_FILES:
        return []
    findings = []
    covered: Set[int] = set()       # nodes inside an already flagged loop
    for node in ast.walk(tree):     # breadth-first: outer loops first
        if not isinstance(node, _LOOPS) or id(node) in covered:
            continue
        hits = [it for it in _loop_iters(node) if _is_row_axis_range(it)]
        for it in hits:
            findings.append(Finding(
                "lint/no-per-rank-dict", _loc(path, it),
                "per-rank loop over range(<grid>.dim_y) in a stacked step; "
                "operate on DistMatrix.data and charge each communicator "
                "family in one machine call"))
        if hits:
            covered.update(map(id, ast.walk(node)))
    return findings


# -- lint/lock-discipline ---------------------------------------------------------


def _assigned_self_attrs(node: ast.AST) -> Iterable[ast.Attribute]:
    """``self.X`` attributes a statement stores into (assign/augassign/del)."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        # Unpack tuple targets; reach through subscripts (self.d[k] = v
        # mutates self.d just as directly as self.d = v).
        stack = [target]
        while stack:
            t = stack.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                stack.extend(t.elts)
            elif isinstance(t, ast.Subscript):
                stack.append(t.value)
            elif _is_self_attr(t):
                yield t


def _with_holds_lock(node: ast.With) -> bool:
    return any(_is_self_attr(item.context_expr, "_lock")
               for item in node.items)


def _check_lock_method(method: _FuncDef, path: str,
                       findings: List[Finding]) -> None:
    def visit(stmts: Sequence[ast.stmt], locked: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes bind their own self
            if not locked:
                for attr in _assigned_self_attrs(stmt):
                    if attr.attr != "_lock":
                        findings.append(Finding(
                            "lint/lock-discipline", _loc(path, stmt),
                            f"self.{attr.attr} mutated outside `with "
                            f"self._lock` in public method "
                            f"{method.name}() of a lock-owning class"))
            inner = locked or (isinstance(stmt, ast.With)
                               and _with_holds_lock(stmt))
            for field in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(stmt, field, None)
                if not children:
                    continue
                for child in children:
                    if isinstance(child, ast.ExceptHandler):
                        visit(child.body, inner)
                visit([c for c in children if isinstance(c, ast.stmt)], inner)

    visit(method.body, locked=False)


def _owns_lock(cls: ast.ClassDef) -> bool:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and item.name == "__init__":
            return any(any(_is_self_attr(a, "_lock")
                           for a in _assigned_self_attrs(stmt))
                       for stmt in ast.walk(item)
                       if isinstance(stmt, ast.stmt))
    return False


def _lint_lock_discipline(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not _owns_lock(cls):
            continue
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_"):
                continue  # __init__, dunders, caller-holds-lock helpers
            _check_lock_method(item, path, findings)
    return findings


# -- entry points -----------------------------------------------------------------


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one file's *source* text; *path* scopes path-dependent rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("lint/parse-error", f"{path}:{exc.lineno or 0}",
                        str(exc.msg))]
    findings = _lint_lock_discipline(tree, path)
    if _in_scope(path, WALLCLOCK_SCOPES):
        findings += _lint_wallclock(tree, path)
    if _in_scope(path, PER_RANK_DICT_SCOPES):
        findings += _lint_per_rank_dict(tree, path)
    if _in_scope(path, DEEP_ASDICT_SCOPES):
        findings += _lint_deep_asdict(tree, path)
    return findings


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``*.py`` file under *paths* (files or directories).

    A path that does not exist yields one ``lint/no-such-path`` finding.
    """
    findings: List[Finding] = []
    for root in paths:
        if not os.path.exists(root):
            findings.append(Finding("lint/no-such-path", root,
                                    f"path {root!r} not found"))
            continue
        if os.path.isfile(root):
            findings.extend(lint_file(root))
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    findings.extend(lint_file(os.path.join(dirpath, name)))
    return findings
