"""Tidy result tables: streaming rows, persistence, filtering, rendering.

A :class:`ResultTable` accumulates one :class:`Row` per evaluated grid
point.  Rows arrive in *completion* order (studies stream results as
they finish); :meth:`ResultTable.finalize` orders them by grid index, so
a resumed campaign renders byte-identically to an uninterrupted one.

Persistence is line-oriented JSONL -- one header record describing the
study shape, then one record per completed row, appended and flushed as
each point finishes.  :func:`load_partial` tolerates a truncated tail
(the file a killed campaign leaves behind) by reporting the byte offset
of the last intact record, which the study writer truncates back to
before resuming.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.study.axes import point_key
from repro.utils.validation import require

#: Discriminator of the JSONL header record.
HEADER_KIND = "repro-study"


def jsonable(value: object) -> object:
    """Coerce numpy scalars (and containers of them) to plain JSON types."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    for attr in ("item",):  # numpy scalars expose .item()
        if hasattr(value, attr) and not isinstance(
                value, (str, bytes, int, float, bool, type(None))):
            try:
                return value.item()
            except (TypeError, ValueError):
                break
    return value


@dataclass(frozen=True)
class Row:
    """One completed grid point: where it sits, what it measured.

    ``point`` holds the axis labels (JSON-able), ``values`` the metric
    cells.  ``ok`` is False for structurally infeasible points, which are
    recorded (so resume knows the full grid) but render as dashes.
    """

    index: int
    point: Dict[str, object] = field(hash=False)
    values: Dict[str, object] = field(hash=False)
    ok: bool = True

    @property
    def key(self) -> str:
        """Canonical resume key (grid-position independent)."""
        return point_key(self.point)

    def get(self, name: str, default: Optional[object] = None) -> object:
        """Look a column up in the point labels, then the metric values."""
        if name in self.point:
            return self.point[name]
        return self.values.get(name, default)

    def to_json(self) -> str:
        return json.dumps({"i": self.index, "point": jsonable(self.point),
                           "values": jsonable(self.values), "ok": self.ok},
                          sort_keys=True)

    @classmethod
    def from_obj(cls, obj: dict) -> "Row":
        return cls(index=int(obj["i"]), point=dict(obj["point"]),
                   values=dict(obj["values"]), ok=bool(obj.get("ok", True)))


class ResultTable:
    """An ordered collection of rows with uniform columns and renderers."""

    def __init__(self, point_columns: Sequence[str],
                 value_columns: Sequence[str],
                 rows: Sequence[Row] = (),
                 name: str = "",
                 formats: Optional[Dict[str, str]] = None,
                 params: Optional[Dict[str, object]] = None):
        self.point_columns = list(point_columns)
        self.value_columns = list(value_columns)
        self.name = name
        self.formats = dict(formats or {})
        #: Non-axis parameterization (machine, seed, ...) recorded in the
        #: persistence header so a resume against different parameters is
        #: refused instead of returning stale rows.
        self.params = dict(params or {})
        self._rows: List[Row] = list(rows)

    # -- accumulation -------------------------------------------------------------

    def append(self, row: Row) -> None:
        self._rows.append(row)

    def finalize(self) -> "ResultTable":
        """Order rows by grid index; the canonical rendering order."""
        self._rows.sort(key=lambda r: r.index)
        return self

    # -- access -------------------------------------------------------------------

    @property
    def rows(self) -> List[Row]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def columns(self) -> List[str]:
        return self.point_columns + self.value_columns

    def filter(self, predicate: Optional[Callable[[Row], bool]] = None,
               **eq: object) -> "ResultTable":
        """Rows matching a predicate and/or column equalities, as a new table."""
        def keep(row: Row) -> bool:
            if predicate is not None and not predicate(row):
                return False
            return all(row.get(k) == v for k, v in eq.items())

        return ResultTable(self.point_columns, self.value_columns,
                           rows=[r for r in self._rows if keep(r)],
                           name=self.name, formats=self.formats)

    def first(self, **eq: object) -> Optional[Row]:
        """The first row matching the column equalities, or None."""
        for row in self._rows:
            if all(row.get(k) == v for k, v in eq.items()):
                return row
        return None

    def pivot(self, index: str, columns: str, values: str
              ) -> Tuple[List[object], List[object], Dict[Tuple[object, object], object]]:
        """Cross-tabulate one value column: ``(row_labels, col_labels, cells)``.

        Labels appear in first-appearance (grid) order; only ``ok`` rows
        contribute cells.
        """
        row_labels: List[object] = []
        col_labels: List[object] = []
        cells: Dict[Tuple[object, object], object] = {}
        for row in self._rows:
            if not row.ok:
                continue
            r, c = row.get(index), row.get(columns)
            if r not in row_labels:
                row_labels.append(r)
            if c not in col_labels:
                col_labels.append(c)
            cells[(r, c)] = row.get(values)
        return row_labels, col_labels, cells

    # -- rendering ----------------------------------------------------------------

    def _cell(self, name: str, value: object) -> str:
        if value is None:
            return "-"
        fmt = self.formats.get(name)
        if fmt is None:
            fmt = "{:.6g}" if isinstance(value, float) else "{!s}"
        try:
            return fmt.format(value)
        except (ValueError, TypeError):
            return str(value)

    def _grid(self) -> List[List[str]]:
        header = list(self.columns)
        body = []
        for row in self._rows:
            cells = [self._cell(c, row.get(c)) for c in self.point_columns]
            if row.ok:
                cells += [self._cell(c, row.values.get(c))
                          for c in self.value_columns]
            else:
                cells += ["-"] * len(self.value_columns)
            body.append(cells)
        return [header] + body

    def to_text(self, title: Optional[str] = None) -> str:
        """Aligned plain-text rendering (one line per row)."""
        grid = self._grid()
        widths = [max(len(line[i]) for line in grid)
                  for i in range(len(grid[0]))]
        lines = []
        head = title if title is not None else self.name
        if head:
            lines += [head, "=" * max(len(head), 1)]
        if not self._rows:
            lines.append("no points")
            return "\n".join(lines)
        for line in grid:
            lines.append("  ".join(cell.rjust(w)
                                   for cell, w in zip(line, widths)).rstrip())
        return "\n".join(lines)

    def to_csv(self) -> str:
        """RFC-4180 CSV with raw (unformatted) cell values."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self._rows:
            writer.writerow(
                [row.get(c) for c in self.point_columns]
                + [(row.values.get(c) if row.ok else None)
                   for c in self.value_columns])
        return out.getvalue()

    def to_markdown(self) -> str:
        """GitHub-flavored markdown table with formatted cells."""
        grid = self._grid()
        lines = ["| " + " | ".join(grid[0]) + " |",
                 "|" + "|".join(" --- " for _ in grid[0]) + "|"]
        for line in grid[1:]:
            lines.append("| " + " | ".join(line) + " |")
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------------

    def header(self) -> dict:
        """The JSONL header record describing this table's shape."""
        return {"kind": HEADER_KIND, "study": self.name,
                "points": self.point_columns, "values": self.value_columns,
                "params": jsonable(self.params)}

    def save(self, path: str) -> None:
        """Write the whole table (header + rows) to a JSONL file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for row in self._rows:
                fh.write(row.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ResultTable":
        """Read a table back (tolerating a truncated tail), in grid order."""
        header, rows, _ = load_partial(path)
        require(header is not None, f"{path} has no study header")
        return cls(point_columns=header.get("points", []),
                   value_columns=header.get("values", []),
                   rows=rows, name=header.get("study", ""),
                   params=header.get("params")).finalize()


def load_partial(path: str) -> Tuple[Optional[dict], List[Row], int]:
    """Read a possibly-truncated study JSONL: ``(header, rows, good_end)``.

    Parsing stops at the first incomplete or unparsable line (what a
    killed campaign leaves at the tail); ``good_end`` is the byte offset
    just past the last intact record, so a resuming writer can truncate
    the garbage before appending.  A missing file yields ``(None, [], 0)``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None, [], 0

    header: Optional[dict] = None
    rows: List[Row] = []
    good_end = 0
    pos = 0
    for line in data.splitlines(keepends=True):
        end = pos + len(line)
        if not line.endswith(b"\n"):
            break                       # truncated tail record
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break                       # corrupt record: drop it and the rest
        if header is None:
            if not (isinstance(obj, dict) and obj.get("kind") == HEADER_KIND):
                break                   # not a study file
            header = obj
        else:
            try:
                rows.append(Row.from_obj(obj))
            except (KeyError, TypeError, ValueError):
                break
        good_end = end
        pos = end
    return header, rows, good_end
