"""repro.study: one declarative campaign abstraction over every experiment.

The paper's evidence is a set of *campaigns* -- scaling curves, accuracy
ladders, crossover sweeps.  A :class:`Study` declares one campaign as a
grid of :class:`Axis` (algorithm, matrix shape/kind/condition, processor
ladder, machine preset, mode, variant tuple, ...) plus pluggable
:class:`Metric` columns; execution and aggregation are then uniform for
every campaign in the repository::

    from repro.study import executed_sweep_study

    study = executed_sweep_study(m=2048, n=32, proc_counts=(4, 8, 16))
    table = study.run(cache_dir=".repro-cache",
                      jsonl_path="sweep.jsonl")     # resumable campaign
    print(table.to_text())                          # or to_csv / to_markdown
    fast = table.filter(algorithm="ca_cqr2")

Engine-backed studies expand their grid to :class:`repro.engine.RunSpec`
runs and stream them through :meth:`repro.Session.run_iter` (process
parallelism + the fingerprint-keyed on-disk result cache); completed
rows stream into a :class:`ResultTable` and -- when ``jsonl_path`` is
given -- onto disk as each point finishes, so an interrupted campaign
resumes executing only the missing points and finalizes to an identical
table.

The experiment modules define their campaigns on top of this API:
:func:`repro.experiments.scaling.strong_scaling_study` /
``weak_scaling_study`` and
:func:`repro.experiments.accuracy.accuracy_study`.  The algorithm
comparison and the crossover sweep are planner studies
(:func:`study_from_dict` with ``kind`` ``"planner"`` and an
``algorithms`` axis), read by :mod:`repro.experiments.sweeps` and
:mod:`repro.experiments.crossover`.  The ``repro study`` CLI subcommand
runs a study from flags or a JSON spec file.
"""

from repro.study.axes import Axis, Point, expand, grid_size, point_key
from repro.study.builtin import (
    default_executed_algorithms,
    executed_sweep_study,
    study_from_dict,
)
from repro.study.metrics import (
    CriticalPathSeconds,
    Flops,
    Messages,
    Metric,
    Orthogonality,
    Outcome,
    RawField,
    Residual,
    Words,
)
from repro.study.study import ProgressInfo, Study
from repro.study.table import ResultTable, Row, load_partial

__all__ = [
    "Axis",
    "CriticalPathSeconds",
    "Flops",
    "Messages",
    "Metric",
    "Orthogonality",
    "Outcome",
    "Point",
    "ProgressInfo",
    "RawField",
    "Residual",
    "ResultTable",
    "Row",
    "Study",
    "Words",
    "default_executed_algorithms",
    "executed_sweep_study",
    "expand",
    "grid_size",
    "load_partial",
    "point_key",
    "study_from_dict",
]
