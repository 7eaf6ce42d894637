"""Experiment harness: the paper's evaluation, regenerated.

* :mod:`repro.experiments.scaling` -- variant tuples and evaluation drivers
  for strong/weak scaling under a machine preset (the paper's
  Gigaflops/s/node metric, via the validated analytic cost model).
* :mod:`repro.experiments.figures` -- one spec per paper figure
  (Figures 1, 4, 5, 6, 7), transcribing the exact matrix families, node
  ladders and per-variant tuples from the plots.
* :mod:`repro.experiments.accuracy` -- the numerical-stability study
  justifying CQR2 (orthogonality / residual vs condition number, CQR vs
  CQR2 vs CQR3 vs shifted CQR3 vs Householder).
* :mod:`repro.experiments.report` -- plain-text rendering of result series
  in the shape the paper's plots report.
* :mod:`repro.experiments.reproduction` -- the reproduction record: every
  reproduced number in one text, committed as ``REPRODUCTION.md``.

* :mod:`repro.experiments.sweeps` and :mod:`repro.experiments.crossover`
  -- readers and renderers of two planner studies: the algorithm
  comparison and the CA-CQR2-vs-ScaLAPACK crossover sweep.

The scaling and accuracy modules declare their campaigns as a
:class:`repro.study.Study` (``strong_scaling_study``,
``weak_scaling_study``, ``accuracy_study``); the algorithm comparison
and the crossover sweep are ``kind: "planner"`` specs
(:func:`repro.study.study_from_dict`).  Run a study and read its table
through the module's ``*_from_table`` helper.
"""

from repro.experiments.scaling import (
    CAStrongVariant,
    CAWeakVariant,
    ScaLAPACKStrongVariant,
    ScaLAPACKWeakVariant,
    StrongScalingFigure,
    WeakScalingFigure,
    SeriesPoint,
    best_per_point,
    strong_scaling_study,
    weak_scaling_study,
    strong_series_from_table,
    weak_series_from_table,
)
from repro.experiments.figures import (
    FIG4,
    FIG5,
    FIG6,
    FIG7,
    FIG1A_SOURCES,
    FIG1B_SOURCES,
    all_figures,
)
from repro.experiments.accuracy import (
    ACCURACY_ALGORITHMS,
    AccuracyRow,
    accuracy_study,
)
from repro.experiments.crossover import (
    CrossoverPoint,
    find_crossover,
    format_crossover_table,
)
from repro.experiments.sweeps import AlgorithmTiming
from repro.experiments.report import format_series_table, format_accuracy_table

__all__ = [
    "CAStrongVariant",
    "CAWeakVariant",
    "ScaLAPACKStrongVariant",
    "ScaLAPACKWeakVariant",
    "StrongScalingFigure",
    "WeakScalingFigure",
    "SeriesPoint",
    "best_per_point",
    "strong_scaling_study",
    "weak_scaling_study",
    "strong_series_from_table",
    "weak_series_from_table",
    "FIG4",
    "FIG5",
    "FIG6",
    "FIG7",
    "FIG1A_SOURCES",
    "FIG1B_SOURCES",
    "all_figures",
    "AccuracyRow",
    "accuracy_study",
    "ACCURACY_ALGORITHMS",
    "AlgorithmTiming",
    "CrossoverPoint",
    "find_crossover",
    "format_crossover_table",
    "format_series_table",
    "format_accuracy_table",
]
