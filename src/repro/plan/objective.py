"""First-class planning objectives: weighted scalarization + budgets.

The planner reports a Pareto frontier over ``(time, memory, messages)``
and ranks by one objective.  A plain string (``"time"``, ``"memory"``,
``"messages"``) ranks by that single metric exactly as before; an
:class:`Objective` generalizes the ranking to serving-style queries:

* **weighted scalarization** -- ``Objective(weights={"time": 1.0,
  "memory": 0.2})`` ranks by a weighted sum of *relative* metric ratios
  (each metric is normalized by the best candidate's value, so weights
  compare like-with-like: weight 0.2 on memory means "a relative memory
  regression counts one fifth of the same relative time regression");
* **budget constraints** -- ``Objective(budgets=(Budget("memory",
  8e6),))`` answers "the fastest plan with <= 8e6 words/rank": plans
  within every budget rank first (by score), violators rank after them
  ordered by how badly they miss, and carry ``within_budget=False``.

The CLI spelling is ``repro plan --objective time=1,memory=0.2
--budget "memory<=8e6"`` (:meth:`Objective.parse` /
:meth:`Budget.parse`); sessions carry one objective for every planning
call (:class:`repro.Session`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import require

#: The three planner metrics an objective can weight or bound.  ``time``
#: is modeled (or symbolically refined) seconds, ``memory`` the
#: per-process peak footprint in words, ``messages`` the per-process
#: critical-path message count.
METRICS = ("time", "memory", "messages")

_BUDGET_RE = re.compile(r"^\s*([a-z]+)\s*<=\s*([-+0-9.eE]+)\s*$")


@dataclass(frozen=True)
class Budget:
    """One constraint: keep *metric* at or under *limit*.

    Units follow the metric: seconds for ``time``, words per rank for
    ``memory``, message count for ``messages``.
    """

    metric: str
    limit: float

    def __post_init__(self) -> None:
        require(self.metric in METRICS,
                f"budget metric must be one of {METRICS}, got {self.metric!r}")
        limit = float(self.limit)
        require(math.isfinite(limit) and limit > 0,
                f"budget limit must be positive and finite, "
                f"got {self.limit!r}")
        object.__setattr__(self, "limit", limit)

    @classmethod
    def parse(cls, text: str) -> "Budget":
        """Parse the CLI spelling, e.g. ``"memory<=8e6"``."""
        match = _BUDGET_RE.match(text)
        require(match is not None,
                f"cannot parse budget {text!r}; expected <metric><=<limit>, "
                f'e.g. "memory<=8e6" with metric one of {METRICS}')
        return cls(metric=match.group(1), limit=float(match.group(2)))

    def __str__(self) -> str:
        return f"{self.metric}<={self.limit:g}"


@dataclass(frozen=True)
class Objective:
    """What to optimize: metric weights plus optional budget constraints.

    ``weights`` may be given as a mapping (``{"time": 1.0,
    "memory": 0.2}``); it is canonicalized to a sorted tuple of
    ``(metric, weight)`` pairs so equal objectives hash and fingerprint
    identically.  The default objective is pure time.
    """

    weights: Tuple[Tuple[str, float], ...] = (("time", 1.0),)
    budgets: Tuple[Budget, ...] = field(default=())

    def __post_init__(self) -> None:
        weights = self.weights
        if isinstance(weights, Mapping):
            weights = tuple(weights.items())
        canon = []
        for metric, weight in weights:
            require(metric in METRICS,
                    f"objective metric must be one of {METRICS}, "
                    f"got {metric!r}")
            weight = float(weight)
            require(math.isfinite(weight) and weight >= 0,
                    f"objective weights must be finite and >= 0, "
                    f"got {metric}={weight}")
            canon.append((metric, weight))
        canon.sort()
        require(any(w > 0 for _, w in canon),
                "an objective needs at least one positive weight")
        require(len({m for m, _ in canon}) == len(canon),
                f"duplicate metric in objective weights: {canon}")
        object.__setattr__(self, "weights", tuple(canon))
        budgets = tuple(self.budgets)
        for budget in budgets:
            require(isinstance(budget, Budget),
                    f"budgets must be Budget instances, got {budget!r}")
        object.__setattr__(self, "budgets", budgets)

    # -- construction -------------------------------------------------------------

    @classmethod
    def single(cls, metric: str, budgets: Sequence[Budget] = ()) -> "Objective":
        """A pure single-metric objective (the legacy ranking)."""
        return cls(weights=((metric, 1.0),), budgets=tuple(budgets))

    @classmethod
    def parse(cls, text: str,
              budgets: Iterable[Union[str, Budget]] = ()) -> "Objective":
        """Parse the CLI spelling of an objective.

        ``text`` is either a plain metric name (``"memory"``) or a
        comma-separated weight list (``"time=1,memory=0.2"``; a bare
        metric inside the list means weight 1).  ``budgets`` are
        :class:`Budget` instances or their string spellings
        (``"memory<=8e6"``).
        """
        weights: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            require(bool(part), f"empty metric in objective {text!r}")
            if "=" in part:
                name, _, value = part.partition("=")
                name = name.strip()
                try:
                    weight = float(value)
                except ValueError:
                    raise ValueError(
                        f"cannot parse objective weight {part!r}; expected "
                        f'<metric>=<number>, e.g. "time=1,memory=0.2"'
                    ) from None
            else:
                name, weight = part, 1.0
            require(name not in weights,
                    f"duplicate metric {name!r} in objective {text!r}")
            weights[name] = weight
        parsed = tuple(b if isinstance(b, Budget) else Budget.parse(b)
                       for b in budgets)
        return cls(weights=tuple(weights.items()), budgets=parsed)

    @classmethod
    def coerce(cls, value: Union[None, str, Mapping, "Objective"]
               ) -> "Objective":
        """Normalize any accepted objective spelling to an :class:`Objective`.

        ``None`` means the default (pure time); a plain metric string or
        weight-list string parses via :meth:`parse`; a mapping is taken
        as weights; an :class:`Objective` passes through.
        """
        if value is None:
            return cls()
        if isinstance(value, Objective):
            return value
        if isinstance(value, Mapping):
            return cls(weights=tuple(value.items()))
        if isinstance(value, str):
            return cls.parse(value)
        raise ValueError(f"cannot interpret {value!r} as a planning objective")

    def to_dict(self) -> dict:
        """JSON-able form: ``{"weights": ((metric, weight), ...),
        "budgets": ({"metric", "limit"}, ...)}``."""
        return {"weights": self.weights,
                "budgets": tuple({"metric": b.metric, "limit": b.limit}
                                 for b in self.budgets)}

    # -- semantics ----------------------------------------------------------------

    @property
    def is_plain(self) -> bool:
        """A single-metric, unconstrained objective (printed as its metric)."""
        return len(self.weights) == 1 and not self.budgets

    @property
    def primary_metric(self) -> str:
        """The highest-weighted metric (ties broken by metric order)."""
        return max(self.weights,
                   key=lambda mw: (mw[1], -METRICS.index(mw[0])))[0]

    def _arrays(self, seconds, memory, messages) -> Dict[str, np.ndarray]:
        return {"time": np.asarray(seconds, dtype=np.float64),
                "memory": np.asarray(memory, dtype=np.float64),
                "messages": np.asarray(messages, dtype=np.float64)}

    def scores(self, seconds, memory, messages) -> np.ndarray:
        """Scalarized score per candidate (lower is better).

        Each metric is normalized by the best (minimum) value among the
        candidates before weighting, so the score is a weighted sum of
        relative ratios and the weights are unit-free.
        """
        arrays = self._arrays(seconds, memory, messages)
        total = np.zeros_like(arrays["time"])
        for metric, weight in self.weights:
            if weight == 0:
                continue
            values = arrays[metric]
            ref = float(values.min()) if values.size else 1.0
            if not ref > 0:
                ref = 1.0
            total = total + weight * (values / ref)
        return total

    def within(self, seconds, memory, messages) -> np.ndarray:
        """Boolean mask: which candidates satisfy every budget."""
        arrays = self._arrays(seconds, memory, messages)
        ok = np.ones(arrays["time"].shape, dtype=bool)
        for budget in self.budgets:
            ok &= arrays[budget.metric] <= budget.limit
        return ok

    def violation(self, seconds, memory, messages) -> np.ndarray:
        """Summed relative budget excess per candidate (0 when within)."""
        arrays = self._arrays(seconds, memory, messages)
        excess = np.zeros_like(arrays["time"])
        for budget in self.budgets:
            over = (arrays[budget.metric] - budget.limit) / budget.limit
            excess = excess + np.maximum(over, 0.0)
        return excess

    def __str__(self) -> str:
        if self.is_plain:
            label = self.weights[0][0]
        else:
            label = ",".join(f"{m}={w:g}" for m, w in self.weights)
        if self.budgets:
            label += " s.t. " + ",".join(str(b) for b in self.budgets)
        return label
