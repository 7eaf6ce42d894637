"""The campaign core: declare a grid once, execute it uniformly.

A :class:`Study` is a declarative description of one experimental
campaign: a grid of :class:`~repro.study.axes.Axis` (algorithm, matrix
shape/kind/condition, processor ladder, machine preset, mode, scaling
variant, ...) plus the :class:`~repro.study.metrics.Metric` columns to
measure at every point.  Execution is uniform across every campaign in
the repository:

* **engine-backed** studies (``spec=``) expand each point to a
  :class:`~repro.engine.RunSpec` and execute through the engine's
  parallel, cached, *streaming* batch runner
  (:meth:`repro.session.Session.run_iter`);
* **model-backed** studies (``evaluate=``) call a custom evaluator per
  point -- the analytic cost-model campaigns (sweeps, scaling figures,
  crossover) and the sequential accuracy ladder.

Either way, completed rows **stream** into a tidy
:class:`~repro.study.table.ResultTable` in completion order, with
optional JSONL persistence: pass ``jsonl_path`` and every finished point
is appended and flushed immediately, so a killed campaign resumes from
its partial file executing only the missing points -- and the finalized
table is identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.engine import CapabilityError, solver_for
from repro.engine.spec import RunSpec
from repro.obs import span
from repro.utils.config import UNSET
from repro.study.axes import Axis, Point, expand, grid_size
from repro.study.metrics import Metric, Outcome
from repro.study.table import ResultTable, Row, load_partial
from repro.utils.validation import require


@dataclass(frozen=True)
class ProgressInfo:
    """One progress tick, delivered to the ``progress`` callback.

    ``rate`` and ``eta_seconds`` are derived from *executed* rows only --
    resumed rows replay from the JSONL file in microseconds and would
    make any throughput estimate meaningless.  Both are ``None`` until
    the first executed row lands.  Progress is observational: none of
    these fields are ever written into the result JSONL.
    """

    done: int
    total: int
    row: Row
    #: ``True`` when the row was executed now; ``False`` when replayed
    #: from a partial JSONL file.
    fresh: bool
    #: Seconds since the stream started.
    elapsed: float
    #: Executed rows per second, or ``None`` before the first one.
    rate: Optional[float]
    #: Estimated seconds until the stream completes, or ``None``.
    eta_seconds: Optional[float]


#: Signature of the progress callback: one :class:`ProgressInfo` per row.
ProgressFn = Callable[[ProgressInfo], None]


@dataclass
class Study:
    """One declarative campaign: axes x metrics, plus how to evaluate a point.

    Exactly one of ``spec`` (point -> :class:`RunSpec`, engine-executed)
    or ``evaluate`` (point -> raw result object, e.g. an analytic-model
    dict) must be provided.  Both may return ``None`` to mark a point
    structurally infeasible -- such points are recorded as not-``ok``
    rows rather than raising, mirroring how a practitioner's options
    narrow across a sweep.  A study with no axes is one point.
    """

    name: str
    axes: Tuple[Axis, ...]
    metrics: Tuple[Metric, ...]
    spec: Optional[Callable[[Dict[str, object]], Optional[RunSpec]]] = None
    evaluate: Optional[Callable[[Dict[str, object]], object]] = None
    description: str = ""
    #: Non-axis parameterization (machine, seed, block size, ...), recorded
    #: in the JSONL header: resuming the same grid under different
    #: parameters is refused instead of silently returning stale rows.
    params: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        self.axes = tuple(self.axes)
        self.metrics = tuple(self.metrics)
        require((self.spec is None) != (self.evaluate is None),
                "a study needs exactly one of spec= (engine-executed) or "
                "evaluate= (custom evaluator)")
        names = [*(a.name for a in self.axes),
                 *(m.name for m in self.metrics)]
        require(len(set(names)) == len(names),
                f"duplicate column names across axes/metrics: {names}")

    # -- shape --------------------------------------------------------------------

    def points(self) -> List[Point]:
        """The expanded grid, in row-major order."""
        return list(expand(self.axes))

    def __len__(self) -> int:
        return grid_size(self.axes)

    def table(self, rows: Sequence[Row] = ()) -> ResultTable:
        """An empty (or pre-seeded) result table with this study's shape."""
        return ResultTable(
            point_columns=[a.name for a in self.axes],
            value_columns=[m.name for m in self.metrics],
            rows=rows, name=self.name,
            formats={m.name: m.fmt for m in self.metrics},
            params=self.params)

    # -- execution ----------------------------------------------------------------

    def run(self, *, parallel: Optional[bool] = None,
            max_workers: Optional[int] = None,
            cache_dir=UNSET, jsonl_path: Optional[str] = None,
            resume: bool = True, progress: Optional[ProgressFn] = None,
            session=None) -> ResultTable:
        """Execute the campaign and return the finalized (grid-ordered) table."""
        table = self.table()
        for row in self.stream(parallel=parallel, max_workers=max_workers,
                               cache_dir=cache_dir, jsonl_path=jsonl_path,
                               resume=resume, progress=progress,
                               session=session):
            table.append(row)
        return table.finalize()

    def stream(self, *, parallel: Optional[bool] = None,
               max_workers: Optional[int] = None,
               cache_dir=UNSET,
               jsonl_path: Optional[str] = None,
               resume: bool = True, progress: Optional[ProgressFn] = None,
               session=None) -> Iterator[Row]:
        """Yield one :class:`Row` per grid point, as each completes.

        Previously-persisted points (when resuming from ``jsonl_path``)
        are yielded first from the file without re-executing; the rest
        execute through the engine's streaming batch runner (engine
        studies) or the custom evaluator, and are appended to the file
        as they finish.  ``session`` supplies the execution context
        (auto-spec resolution, worker propagation, executor and
        result-cache defaults when ``parallel``/``cache_dir`` are left
        unspecified) for engine-backed points; the default session is
        used when omitted (:meth:`repro.session.Session.study` passes
        itself).
        """
        points = self.points()
        total = len(points)
        done = 0
        fresh_done = 0
        started = time.perf_counter()
        existing = self._load_existing(jsonl_path, resume)
        writer = _JsonlWriter(jsonl_path, self.table().header(),
                              resume=resume) if jsonl_path else None

        def emit(row: Row, fresh: bool) -> Row:
            nonlocal done, fresh_done
            if fresh and writer is not None:
                writer.append(row)
            done += 1
            if fresh:
                fresh_done += 1
            if progress is not None:
                elapsed = time.perf_counter() - started
                rate = (fresh_done / elapsed
                        if fresh_done and elapsed > 0 else None)
                eta = ((total - done) / rate
                       if rate and done < total else None)
                progress(ProgressInfo(done=done, total=total, row=row,
                                      fresh=fresh, elapsed=elapsed,
                                      rate=rate, eta_seconds=eta))
            return row

        # The root span is held open across yields; _Span.__exit__ is
        # defensive about the context it closes in, so an abandoned
        # generator cannot raise out of observation.
        with span("study", study=self.name, points=total) as root:
            try:
                pending: List[Point] = []
                for pt in points:
                    hit = existing.get(pt.key)
                    if hit is not None:
                        # Re-anchor the stored row to the current grid index.
                        with span("study.point", study=self.name,
                                  index=pt.index, source="resume",
                                  worker=threading.current_thread().name):
                            row = Row(index=pt.index, point=pt.labels,
                                      values=hit.values, ok=hit.ok)
                        yield emit(row, fresh=False)
                    else:
                        pending.append(pt)

                if self.spec is not None:
                    yield from (emit(row, fresh=True)
                                for row in self._stream_engine(
                                    pending, parallel=parallel,
                                    max_workers=max_workers,
                                    cache_dir=cache_dir,
                                    session=session))
                else:
                    for pt in pending:
                        with span("study.point", study=self.name,
                                  index=pt.index, source="evaluate",
                                  worker=threading.current_thread().name
                                  ) as sp:
                            row = self._evaluate_point(pt)
                            sp.set(ok=row.ok)
                        yield emit(row, fresh=True)
                root.set(done=done, resumed=done - fresh_done,
                         executed=fresh_done)
            finally:
                if writer is not None:
                    writer.close()

    # -- internals ----------------------------------------------------------------

    def _load_existing(self, jsonl_path: Optional[str],
                       resume: bool) -> Dict[str, Row]:
        if not jsonl_path or not resume:
            return {}
        header, rows, good_end = load_partial(jsonl_path)
        if header is None:
            # A pre-existing file that is not a study JSONL must be
            # refused, not clobbered (the writer truncates garbage).
            require(good_end > 0 or not os.path.exists(jsonl_path)
                    or os.path.getsize(jsonl_path) == 0,
                    f"{jsonl_path} exists but is not a study results file; "
                    "refusing to overwrite it (pass resume=False / --fresh "
                    "to replace it, or use a fresh path)")
            return {}
        mine = self.table().header()
        require(header == mine,
                f"{jsonl_path} belongs to a different study or "
                f"parameterization (found {header.get('study')!r} with axes "
                f"{header.get('points')} and params {header.get('params')}, "
                f"expected {mine['study']!r} with axes {mine['points']} and "
                f"params {mine['params']}); pass resume=False or a fresh path")
        return {row.key: row for row in rows}

    def _row(self, pt: Point, outcome: Optional[Outcome]) -> Row:
        if outcome is None:
            return Row(index=pt.index, point=pt.labels, values={}, ok=False)
        values = {m.name: m.compute(outcome) for m in self.metrics}
        return Row(index=pt.index, point=pt.labels, values=values, ok=True)

    def _evaluate_point(self, pt: Point) -> Row:
        raw = self.evaluate(dict(pt.values))
        if raw is None:
            return self._row(pt, None)
        return self._row(pt, Outcome(point=pt.values, raw=raw))

    def _stream_engine(self, pending: Sequence[Point], *,
                       parallel: Optional[bool],
                       max_workers: Optional[int],
                       cache_dir, session=None) -> Iterator[Row]:
        """Expand points to RunSpecs and stream them through the engine.

        Auto specs resolve through the session's planner context (plan
        cache + objective), so a planner-aware campaign sees the same
        configurations a direct ``session.run`` would.
        """
        if session is None:
            from repro.session import default_session

            session = default_session()
        runnable: List[Point] = []
        specs: List[RunSpec] = []
        for pt in pending:
            spec = self.spec(dict(pt.values))
            if spec is not None:
                try:
                    spec = session.resolve(spec)
                    # The prepared spec carries the grid the point runs
                    # on, which the label/config metrics report.
                    spec = solver_for(spec.algorithm).prepare(spec)
                except CapabilityError:
                    spec = None
            if spec is None:
                yield self._row(pt, None)
            else:
                runnable.append(pt)
                specs.append(spec)
        for i, run in session.run_iter(specs, parallel=parallel,
                                       max_workers=max_workers,
                                       cache_dir=cache_dir):
            pt = runnable[i]
            # Engine points execute in pool workers; the span covers row
            # materialization and attributes the driving thread.
            with span("study.point", study=self.name, index=pt.index,
                      source="engine",
                      worker=threading.current_thread().name) as sp:
                outcome = Outcome(point=pt.values, spec=specs[i], run=run)
                row = self._row(pt, outcome)
                sp.set(ok=row.ok)
            yield row


class _JsonlWriter:
    """Append-mode study persistence, safe against a truncated tail.

    On open, the file is truncated back to its last intact record (a
    killed campaign can leave a half-written line; appending after it
    would corrupt the next record too), and the header is written if the
    file is new or empty.
    """

    def __init__(self, path: str, header: dict, resume: bool = True):
        good_end = load_partial(path)[2] if resume else 0
        if os.path.exists(path) and good_end < os.path.getsize(path):
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
        self._fh = open(path, "a", encoding="utf-8")
        if good_end == 0:
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._fh.flush()

    def append(self, row: Row) -> None:
        self._fh.write(row.to_json() + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()
