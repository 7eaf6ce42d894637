"""Shared utilities: argument validation and matrix generators.

These modules are dependency-free (only numpy) and are used by every layer of
the library: the virtual-MPI substrate, the kernels, the core algorithms and
the experiment drivers.
"""

from repro.utils.validation import (
    require,
    check_positive_int,
    is_power_of_two,
)
from repro.utils.matgen import (
    random_matrix,
    random_orthonormal,
    matrix_with_condition,
    tall_skinny_least_squares_problem,
    vandermonde_matrix,
)

__all__ = [
    "require",
    "check_positive_int",
    "is_power_of_two",
    "random_matrix",
    "random_orthonormal",
    "matrix_with_condition",
    "tall_skinny_least_squares_problem",
    "vandermonde_matrix",
]
