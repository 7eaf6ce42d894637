"""Unit tests for repro.utils.validation."""

import pytest

from repro.utils.validation import (
    check_positive_int,
    is_power_of_two,
    require,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(7, "x") == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="must be positive"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive_int(-3, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(2.0, "x")

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="procs"):
            check_positive_int(-1, "procs")


class TestPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 1024, 2 ** 20])
    def test_accepts_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [3, 5, 6, 7, 12, 1000])
    def test_rejects_non_powers(self, value):
        assert not is_power_of_two(value)

    def test_rejects_zero_and_negative(self):
        assert not is_power_of_two(0)
        assert not is_power_of_two(-4)

    def test_rejects_bool(self):
        assert not is_power_of_two(True)
