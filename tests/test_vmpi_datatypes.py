"""Unit tests for the dual numeric/symbolic block backend."""

import numpy as np
import pytest

from repro.vmpi.datatypes import (
    NumericBlock,
    SymbolicBlock,
    join_blocks,
)


class TestNumericBlock:
    def test_matmul(self):
        a = NumericBlock(np.eye(3) * 2)
        b = NumericBlock(np.ones((3, 2)))
        c = a.matmul(b)
        np.testing.assert_array_equal(c.data, 2 * np.ones((3, 2)))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            NumericBlock(np.ones((2, 3))).matmul(NumericBlock(np.ones((2, 3))))

    def test_transpose_contiguous(self):
        t = NumericBlock(np.arange(6.0).reshape(2, 3)).transpose()
        assert t.shape == (3, 2)
        assert t.data.flags["C_CONTIGUOUS"]

    def test_transpose_never_aliases(self):
        # A transposed single-row block is already contiguous, so a naive
        # ascontiguousarray would return a view into the source buffer.
        a = NumericBlock(np.arange(4.0).reshape(1, 4))
        t = a.transpose()
        assert not np.shares_memory(a.data, t.data)

    def test_sub_neg(self):
        a = NumericBlock(np.full((2, 2), 3.0))
        b = NumericBlock(np.ones((2, 2)))
        np.testing.assert_array_equal(a.sub(b).data, 2 * np.ones((2, 2)))
        np.testing.assert_array_equal(a.neg().data, -3 * np.ones((2, 2)))

    def test_copy_independent(self):
        a = NumericBlock(np.zeros((2, 2)))
        b = a.copy()
        b.data[0, 0] = 1
        assert a.data[0, 0] == 0

    def test_quadrant_is_cyclic_local_half(self):
        a = NumericBlock(np.arange(16.0).reshape(4, 4))
        q = a.quadrant(1, 0)
        np.testing.assert_array_equal(q.data, [[8, 9], [12, 13]])

    def test_quadrant_rejects_odd(self):
        with pytest.raises(ValueError):
            NumericBlock(np.zeros((3, 4))).quadrant(0, 0)

    def test_words(self):
        assert NumericBlock(np.zeros((3, 5))).words == 15

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            NumericBlock(np.zeros(5))


class TestSymbolicBlock:
    def test_shape_ops(self):
        a = SymbolicBlock((4, 6))
        b = SymbolicBlock((6, 2))
        assert a.matmul(b).shape == (4, 2)
        assert a.transpose().shape == (6, 4)
        assert a.quadrant(0, 1).shape == (2, 3)
        assert a.neg().shape == (4, 6)

    def test_same_validation_as_numeric(self):
        with pytest.raises(ValueError):
            SymbolicBlock((2, 3)).matmul(SymbolicBlock((2, 3)))
        with pytest.raises(ValueError):
            SymbolicBlock((2, 3)).sub(SymbolicBlock((3, 2)))
        with pytest.raises(ValueError):
            SymbolicBlock((3, 4)).quadrant(0, 0)

    def test_no_mixing_backends(self):
        with pytest.raises(TypeError, match="cannot be mixed"):
            SymbolicBlock((2, 2)).matmul(NumericBlock(np.zeros((2, 2))))
        with pytest.raises(TypeError, match="cannot be mixed"):
            NumericBlock(np.zeros((2, 2))).sub(SymbolicBlock((2, 2)))

    def test_words(self):
        assert SymbolicBlock((1024, 1024)).words == 1024 * 1024


class TestJoinBlocks:
    def test_numeric_join(self):
        q = [NumericBlock(np.full((2, 2), float(i))) for i in range(4)]
        joined = join_blocks(*q)
        assert joined.shape == (4, 4)
        np.testing.assert_array_equal(joined.data[:2, :2], 0)
        np.testing.assert_array_equal(joined.data[2:, 2:], 3)

    def test_symbolic_join(self):
        q = [SymbolicBlock((2, 3)) for _ in range(4)]
        assert join_blocks(*q).shape == (4, 6)

    def test_join_rejects_mixed(self):
        with pytest.raises(ValueError):
            join_blocks(SymbolicBlock((2, 2)), NumericBlock(np.zeros((2, 2))),
                        SymbolicBlock((2, 2)), SymbolicBlock((2, 2)))
