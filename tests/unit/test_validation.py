"""Unit tests for repro.util.validation and repro.util.rng."""

import numpy as np
import pytest

from repro.errors import ReproError, ShapeError, ValidationError
from repro.util.rng import as_generator, spawn_generators
from repro.util.validation import (
    check_dense,
    check_in_range,
    check_integer_array,
    check_nonnegative,
    check_permutation,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive_int(self):
        assert check_positive("n", 3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive("n", 0)

    def test_rejects_float_when_integer(self):
        with pytest.raises(ValidationError):
            check_positive("n", 1.5)

    def test_accepts_float_when_not_integer(self):
        assert check_positive("x", 1.5, integer=False) == 1.5

    def test_numpy_integer_accepted(self):
        assert check_positive("n", np.int32(4)) == 4

    def test_error_is_value_error_and_repro_error(self):
        with pytest.raises(ValueError):
            check_positive("n", -1)
        with pytest.raises(ReproError):
            check_positive("n", -1)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("n", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_nonnegative("n", -1)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0

    def test_exclusive_rejects_bound(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_exclusive_rejects_upper_bound(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 1.0, 0.0, 1.0, inclusive=False)

    def test_exclusive_accepts_interior(self):
        assert check_in_range("x", 0.5, 0.0, 1.0, inclusive=False) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_in_range("x", 2.0, 0.0, 1.0)

    def test_rejects_non_real(self):
        with pytest.raises(ValidationError):
            check_in_range("x", "half", 0.0, 1.0)

    def test_error_message_names_strict_op(self):
        with pytest.raises(ValidationError, match="<(?!=)"):
            check_in_range("x", 1.0, 0.0, 1.0, inclusive=False)


class TestCheckIntegerArray:
    def test_converts_to_int64(self):
        out = check_integer_array("a", np.array([1, 2], dtype=np.int16))
        assert out.dtype == np.int64

    def test_rejects_float_array(self):
        with pytest.raises(ValidationError):
            check_integer_array("a", np.array([1.0, 2.0]))

    def test_rejects_integral_valued_floats(self):
        """Whole-number floats still carry a float dtype: no silent truncation."""
        with pytest.raises(ValidationError, match="integer dtype"):
            check_integer_array("a", np.array([1.0, 2.0, 3.0]))

    def test_rejects_bool_and_object(self):
        with pytest.raises(ValidationError):
            check_integer_array("a", np.array([True, False]))
        with pytest.raises(ValidationError):
            check_integer_array("a", np.array([1, None], dtype=object))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            check_integer_array("a", np.zeros((2, 2), dtype=np.int64))

    def test_bounds(self):
        with pytest.raises(ValidationError):
            check_integer_array("a", np.array([0, 5]), max_value=4)
        with pytest.raises(ValidationError):
            check_integer_array("a", np.array([-1, 2]), min_value=0)

    def test_empty_ok(self):
        out = check_integer_array("a", np.array([], dtype=np.int64), min_value=0)
        assert out.size == 0


class TestCheckDense:
    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            check_dense("X", np.zeros((3, 4)), rows=5)
        with pytest.raises(ShapeError):
            check_dense("X", np.zeros((3, 4)), cols=5)

    def test_1d_rejected(self):
        with pytest.raises(ShapeError):
            check_dense("X", np.zeros(3))

    def test_contiguous_float64(self):
        x = np.asfortranarray(np.ones((3, 4), dtype=np.float32))
        out = check_dense("X", x)
        assert out.flags["C_CONTIGUOUS"]
        assert out.dtype == np.float64

    def test_no_copy_when_already_ok(self):
        x = np.ones((3, 4))
        assert check_dense("X", x) is x

    def test_degenerate_zero_row_and_zero_col_shapes(self):
        assert check_dense("X", np.zeros((0, 4))).shape == (0, 4)
        assert check_dense("X", np.zeros((3, 0))).shape == (3, 0)
        assert check_dense("X", np.zeros((0, 0)), rows=0, cols=0).shape == (0, 0)

    def test_dtype_none_preserves_float32(self):
        x = np.ones((3, 4), dtype=np.float32)
        out = check_dense("X", x, dtype=None)
        assert out.dtype == np.float32
        assert out is x  # no up-cast copy

    def test_dtype_none_preserves_float64(self):
        x = np.ones((3, 4))
        assert check_dense("X", x, dtype=None) is x

    def test_dtype_none_promotes_integers(self):
        out = check_dense("X", np.ones((2, 2), dtype=np.int32), dtype=None)
        assert out.dtype == np.float64

    def test_dtype_none_still_enforces_shape(self):
        with pytest.raises(ShapeError):
            check_dense("X", np.ones((2, 2), dtype=np.float32), rows=3, dtype=None)

    def test_dtype_none_makes_contiguous(self):
        x = np.asfortranarray(np.ones((3, 4), dtype=np.float32))
        out = check_dense("X", x, dtype=None)
        assert out.flags["C_CONTIGUOUS"] and out.dtype == np.float32


class TestCheckPermutation:
    def test_valid(self):
        p = check_permutation("p", np.array([2, 0, 1]), 3)
        assert p.tolist() == [2, 0, 1]

    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            check_permutation("p", np.array([0, 1]), 3)

    def test_duplicate(self):
        with pytest.raises(ValidationError):
            check_permutation("p", np.array([0, 0, 2]), 3)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_permutation("p", np.array([0, 1, 3]), 3)

    def test_n_zero_with_empty_perm(self):
        out = check_permutation("p", np.array([], dtype=np.int64), 0)
        assert out.size == 0 and out.dtype == np.int64

    def test_n_zero_rejects_nonempty_with_length_error(self):
        """n=0 + non-empty perm: a clean length message, not a bounds one."""
        with pytest.raises(ValidationError, match="length 0"):
            check_permutation("p", np.array([0], dtype=np.int64), 0)

    def test_rejects_negative_n(self):
        with pytest.raises(ValidationError):
            check_permutation("p", np.array([], dtype=np.int64), -1)

    def test_accepts_readonly_array(self):
        perm = np.array([1, 0, 2], dtype=np.int64)
        perm.setflags(write=False)
        out = check_permutation("p", perm, 3)
        assert out.tolist() == [1, 0, 2]
        assert perm.tolist() == [1, 0, 2]  # input untouched

    def test_accepts_memmapped_array(self, tmp_path):
        path = tmp_path / "perm.npy"
        np.save(path, np.array([2, 0, 1], dtype=np.int64))
        mapped = np.load(path, mmap_mode="r")
        out = check_permutation("p", mapped, 3)
        assert out.tolist() == [2, 0, 1]

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            check_permutation("p", np.zeros((2, 2), dtype=np.int64), 4)


class TestRng:
    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_from_int_deterministic(self):
        a = as_generator(42).integers(0, 100, 10)
        b = as_generator(42).integers(0, 100, 10)
        np.testing.assert_array_equal(a, b)

    def test_spawn_generators_independent_and_deterministic(self):
        gens1 = spawn_generators(7, 3)
        gens2 = spawn_generators(7, 3)
        draws1 = [g.integers(0, 1000, 5).tolist() for g in gens1]
        draws2 = [g.integers(0, 1000, 5).tolist() for g in gens2]
        assert draws1 == draws2
        assert draws1[0] != draws1[1]

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)
