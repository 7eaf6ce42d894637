"""The paper's algorithms.

* :mod:`repro.core.mm3d`     -- Algorithm 1, 3D SUMMA-style multiplication.
* :mod:`repro.core.cfr3d`    -- Algorithms 2-3, recursive Cholesky + inverse.
* :mod:`repro.core.cqr`      -- Algorithms 4-5, sequential CQR / CQR2.
* :mod:`repro.core.cqr_1d`   -- Algorithms 6-7, the existing 1D parallelization.
* :mod:`repro.core.cacqr`    -- Algorithms 8-9, the tunable-grid CA-CQR / CA-CQR2
  (the paper's primary contribution), plus the cubic-grid 3D-CQR2 special case.
* :mod:`repro.core.shifted`  -- shifted CholeskyQR3 (Section V / reference [3]).
* :mod:`repro.core.tuning`   -- processor-grid enumeration and the
  paper's optimal ``m/d = n/c`` rule.
"""

from repro.core.elementwise import dist_sub, dist_neg
from repro.core.mm3d import mm3d
from repro.core.cfr3d import cfr3d, default_base_case
from repro.core.cqr import cqr_sequential, cqr2_sequential, cqr3_sequential
from repro.core.cqr_1d import cqr_1d, cqr2_1d
from repro.core.cacqr import ca_cqr, ca_cqr2, cqr2_3d, CACQRResult
from repro.core.shifted import (
    shifted_cqr_sequential,
    shifted_cqr3_sequential,
    recommended_shift,
    ca_shifted_cqr3,
)
from repro.core.panels import panel_cqr2, panel_cqr2_flops, panel_overhead_ratio
from repro.core.panels_dist import PanelCACQR2Result, ca_panel_cqr2
from repro.core.tuning import (
    GridShape,
    optimal_grid,
    feasible_grids,
    inverse_depth_to_base_case,
)

__all__ = [
    "dist_sub",
    "dist_neg",
    "mm3d",
    "cfr3d",
    "default_base_case",
    "cqr_sequential",
    "cqr2_sequential",
    "cqr3_sequential",
    "cqr_1d",
    "cqr2_1d",
    "ca_cqr",
    "ca_cqr2",
    "cqr2_3d",
    "CACQRResult",
    "shifted_cqr_sequential",
    "shifted_cqr3_sequential",
    "recommended_shift",
    "ca_shifted_cqr3",
    "panel_cqr2",
    "panel_cqr2_flops",
    "panel_overhead_ratio",
    "PanelCACQR2Result",
    "ca_panel_cqr2",
    "GridShape",
    "optimal_grid",
    "feasible_grids",
    "inverse_depth_to_base_case",
]
