"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import operator
import os

import numpy as np
import pytest

# Verify-on-capture is always on under the test suite: every program any
# test captures must pass repro.analysis.verify_program at compile time.
# Set before repro imports so pool workers inherit it too.
os.environ.setdefault("REPRO_SCHED_VERIFY", "1")

from repro.utils.matgen import RngLike, _as_rng, random_orthonormal  # noqa: E402
from repro.utils.validation import check_positive_int, require  # noqa: E402
from repro.vmpi.distmatrix import DistMatrix  # noqa: E402
from repro.vmpi.grid import Grid3D  # noqa: E402
from repro.vmpi.machine import VirtualMachine  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20190615)


def make_cubic(p: int):
    """Build a ``p**3``-rank machine with a cubic grid."""
    vm = VirtualMachine(p ** 3)
    grid = Grid3D.cubic(vm, p)
    return vm, grid


def make_tunable(c: int, d: int):
    """Build a machine with a ``c x d x c`` tunable grid."""
    vm = VirtualMachine(c * c * d)
    grid = Grid3D.tunable(vm, c, d)
    return vm, grid


def make_1d(procs: int):
    """Build a machine with a ``1 x P x 1`` row grid."""
    vm = VirtualMachine(procs)
    grid = Grid3D.build(vm, 1, procs, 1)
    return vm, grid


def rank_events(vm: VirtualMachine) -> list:
    """Every trace event as ``(rank, phase, kind, start, end)``, by rank
    and, per rank, in recorded order -- the per-rank streams every
    charging route must reproduce exactly."""
    return [(e.rank, e.phase, e.kind, e.start, e.end)
            for e in sorted(vm.events, key=operator.attrgetter("rank"))]


def distribute(grid: Grid3D, array: np.ndarray) -> DistMatrix:
    return DistMatrix.from_global(grid, array)


def random_spd(n: int, condition: float = 100.0, rng: RngLike = None, dtype=np.float64) -> np.ndarray:
    """Symmetric positive definite ``n x n`` matrix with given condition number.

    Used to exercise the Cholesky substrates (CholInv, CFR3D) directly.
    """
    check_positive_int(n, "n")
    require(condition >= 1.0, f"condition must be >= 1, got {condition}")
    gen = _as_rng(rng)
    if n == 1:
        return np.array([[1.0]], dtype=dtype)
    q = random_orthonormal(n, n, gen)
    eigs = np.geomspace(1.0, 1.0 / condition, n)
    a = (q * eigs[np.newaxis, :]).dot(q.T)
    # Symmetrize exactly; round-off in the triple product otherwise leaves
    # an O(eps) skew part that trips strict symmetry validation downstream.
    return (0.5 * (a + a.T)).astype(dtype, copy=False)


def graded_matrix(m: int, n: int, grade: float = 1e6, rng: RngLike = None) -> np.ndarray:
    """Gaussian matrix with geometrically graded column scales ``1 .. 1/grade``.

    The 2-norm condition number is ~``grade``, yet CholeskyQR handles this
    family *well*: pure column scaling commutes with the Gram computation
    (Cholesky is forward stable under diagonal scaling), so the effective
    condition number seen by the factorization is that of the unscaled
    Gaussian.  Included as the counterpoint stress test to
    :func:`matrix_with_condition`, whose ill-conditioning is rotationally
    mixed and genuinely breaks CholeskyQR.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    require(grade >= 1.0, f"grade must be >= 1, got {grade}")
    g = _as_rng(rng).standard_normal((m, n))
    scales = np.geomspace(1.0, 1.0 / grade, n)
    return g * scales[np.newaxis, :]


def spd_matrix(n: int, rng: np.random.Generator, condition: float = 50.0) -> np.ndarray:
    return random_spd(n, condition=condition, rng=rng)


def assert_depth_replicated(dm: DistMatrix, want=None) -> None:
    """*dm*'s depth replicas are one stored plane.

    On a ``dim_z > 1`` grid the depth axis of ``dm.data`` is stride 0, so
    every slice is the plane; with *want* (a global matrix) the plane's
    block ``(x, y)`` is ``want[y::dim_y, x::dim_x]``.
    """
    dx, dy, dz = dm.grid.dims
    if dz > 1:
        assert dm.data.strides[2] == 0
    for x, y, z in np.ndindex(dx, dy, dz):
        block = dm.data[x, y, z]
        np.testing.assert_array_equal(block, dm.plane[x, y, 0])
        if want is not None:
            np.testing.assert_array_equal(block, want[y::dy, x::dx])


def assert_alias_only_depth_replicas(*mats: DistMatrix) -> None:
    """Two blocks of *mats* share memory only if they are depth replicas.

    Replicas are the blocks at one ``(x, y)`` of one matrix; blocks at
    distinct ``(x, y)``, or of distinct matrices (e.g. the ``R`` copies of
    distinct subcubes), never alias.  Every block is read-only.
    """
    blocks = [((k, x, y), dm.data[x, y, z])
              for k, dm in enumerate(mats)
              for x, y, z in np.ndindex(*dm.grid.dims)]
    for i, (key, view) in enumerate(blocks):
        assert not view.flags.writeable
        for other_key, other in blocks[i + 1:]:
            assert np.shares_memory(view, other) == (key == other_key)
