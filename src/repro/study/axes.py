"""Declarative axes: the grid a :class:`~repro.study.Study` expands over.

An :class:`Axis` names one dimension of a campaign (algorithm, processor
count, condition number, scaling variant, ...) and its values.  The grid
is the row-major cartesian product of the axes, so every point has a
stable integer index -- the key to deterministic table ordering and to
resuming a partially-completed campaign.

Axis values may be arbitrary Python objects (e.g. the paper's variant
tuples); each value also carries a JSON-able *label* used for
persistence, table rendering, and resume keys.  Labels default to the
value itself for plain scalars and to ``str(value)`` otherwise.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.utils.validation import require

#: JSON-able scalar types an axis value can be persisted as verbatim.
_SCALARS = (str, int, float, bool, type(None))


def _default_label(value: object) -> object:
    """The persisted/displayed form of an axis value."""
    if isinstance(value, _SCALARS):
        return value
    return str(value)


@dataclass(frozen=True)
class Axis:
    """One named dimension of a study grid.

    ``labels`` overrides the persisted/displayed form of each value
    (useful when values are rich objects such as scaling-variant tuples);
    it must be JSON-able and parallel to ``values``.
    """

    name: str
    values: Tuple[object, ...]
    labels: Optional[Tuple[object, ...]] = None

    def __post_init__(self) -> None:
        require(bool(self.name), "an axis needs a non-empty name")
        object.__setattr__(self, "values", tuple(self.values))
        require(len(self.values) > 0, f"axis {self.name!r} has no values")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            require(len(self.labels) == len(self.values),
                    f"axis {self.name!r}: {len(self.labels)} labels for "
                    f"{len(self.values)} values")
        # A repeated label would run its point twice under one resume key.
        seen = set()
        for i in range(len(self.values)):
            key = json.dumps(self.label(i), sort_keys=True)
            require(key not in seen,
                    f"axis {self.name!r} repeats {self.label(i)!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.values)

    def label(self, i: int) -> object:
        """The JSON-able label of the ``i``-th value."""
        if self.labels is not None:
            return self.labels[i]
        return _default_label(self.values[i])


@dataclass(frozen=True)
class Point:
    """One grid point: its stable index, raw values, and JSON-able labels."""

    index: int
    values: Dict[str, object] = field(hash=False)
    labels: Dict[str, object] = field(hash=False)

    @property
    def key(self) -> str:
        """Canonical resume key (independent of grid position)."""
        return point_key(self.labels)


def point_key(labels: Dict[str, object]) -> str:
    """Canonical JSON encoding of a point's labels, for resume matching."""
    return json.dumps(labels, sort_keys=True, separators=(",", ":"))


def expand(axes: Sequence[Axis]) -> Iterator[Point]:
    """Row-major cartesian product of the axes, with stable indices."""
    names = [a.name for a in axes]
    require(len(set(names)) == len(names), f"duplicate axis names in {names}")
    index_ranges = [range(len(a)) for a in axes]
    for index, combo in enumerate(itertools.product(*index_ranges)):
        values = {a.name: a.values[i] for a, i in zip(axes, combo)}
        labels = {a.name: a.label(i) for a, i in zip(axes, combo)}
        yield Point(index=index, values=values, labels=labels)


def grid_size(axes: Sequence[Axis]) -> int:
    """Total number of points in the grid."""
    size = 1
    for a in axes:
        size *= len(a)
    return size
