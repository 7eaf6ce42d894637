"""Unit tests for local BLAS kernels and their flop charges."""

import numpy as np
import pytest

from repro.kernels.blas import (
    local_mm,
    local_mm_tn,
    local_neg,
    local_sub,
    local_syrk,
)
from repro.vmpi.datatypes import NumericBlock, SymbolicBlock


class TestLocalMM:
    def test_numeric_product(self, rng):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3))
        out, flops = local_mm(NumericBlock(a), NumericBlock(b))
        np.testing.assert_allclose(out.data, a @ b)
        assert flops == 2 * 4 * 3 * 6

    def test_symbolic_same_flops(self):
        out, flops = local_mm(SymbolicBlock((4, 6)), SymbolicBlock((6, 3)))
        assert out.shape == (4, 3)
        assert flops == 2 * 4 * 3 * 6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            local_mm(SymbolicBlock((4, 6)), SymbolicBlock((5, 3)))


class TestLocalMMTN:
    def test_transpose_first(self, rng):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 3))
        out, flops = local_mm_tn(NumericBlock(a), NumericBlock(b))
        np.testing.assert_allclose(out.data, a.T @ b)
        assert flops == 2 * 4 * 3 * 6

    def test_symbolic(self):
        out, flops = local_mm_tn(SymbolicBlock((6, 4)), SymbolicBlock((6, 3)))
        assert out.shape == (4, 3)


class TestLocalSyrk:
    def test_gram_exact_symmetry(self, rng):
        a = rng.standard_normal((32, 5))
        out, flops = local_syrk(NumericBlock(a))
        np.testing.assert_array_equal(out.data, out.data.T)
        np.testing.assert_allclose(out.data, a.T @ a, atol=1e-12)

    def test_half_gemm_rate(self):
        _, flops = local_syrk(SymbolicBlock((32, 5)))
        assert flops == 32 * 25  # m n^2, not 2 m n^2


class TestElementwise:
    def test_sub_neg_values_and_flops(self, rng):
        a = NumericBlock(rng.standard_normal((3, 4)))
        b = NumericBlock(rng.standard_normal((3, 4)))
        out, f = local_sub(a, b)
        np.testing.assert_allclose(out.data, a.data - b.data)
        assert f == 12
        out, f = local_neg(a)
        np.testing.assert_allclose(out.data, -a.data)
        assert f == 12
