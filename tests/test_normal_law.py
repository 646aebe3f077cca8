"""The normal law's CDF is a plain-Python port of Cephes' ndtr.  It must
equal scipy.special's bit for bit, sign bit included, everywhere: on
dense grids, deep in both tails, at every branch point of the
approximations and on either side of it, and on the special values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from lensdepth.asymptotics import _ndtr

from conftest import assert_same_bits, neighbours

SQRT2 = math.sqrt(2.0)
MAXLOG = 7.09782712893383996843e2


def symmetric(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


SPECIAL_X = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                      np.finfo(float).max, -np.finfo(float).max])
# ndtr takes erf on |a| / sqrt(2) < 1/sqrt(2), that is |a| < 1, and erfc
# beyond; erfc takes 1 - erf below 1 and switches polynomials at 8 (so
# at |a| = sqrt(2) and 8 sqrt(2)); exp(-z^2) is cut off at z^2 = MAXLOG.
NDTR_BRANCHES = symmetric(neighbours(
    [1.0, SQRT2, 8.0 * SQRT2, math.sqrt(MAXLOG) * SQRT2], steps=8))


@pytest.mark.parametrize("xs", [
    np.linspace(-40.0, 40.0, 100_001),
    np.linspace(-3.0, 3.0, 601),
    np.random.default_rng(1).normal(0.0, 4.0, 50_000),
    symmetric(np.geomspace(1e-300, 1e300, 20_001)),
    NDTR_BRANCHES,
    SPECIAL_X,
], ids=["grid-40", "grid-3", "normal-draws", "magnitudes", "branches", "special"])
def test_ndtr_is_scipy_bit_for_bit(xs):
    assert_same_bits(_ndtr(xs), ndtr(xs))


def test_scalars_come_back_as_numpy_scalars_and_arrays_keep_their_shape():
    for value in (0.3, -np.inf):
        got, want = _ndtr(value), ndtr(value)
        assert type(got) is type(want) is np.float64
        assert_same_bits(got, want)
    grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    assert_same_bits(_ndtr(grid), ndtr(grid))
    assert_same_bits(_ndtr([-1, 0, 2]), ndtr([-1, 0, 2]))
    assert_same_bits(_ndtr(np.empty(0)), ndtr(np.empty(0)))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_ndtr_matches_scipy_on_any_finite_double(x):
    assert_same_bits(_ndtr(x), ndtr(x))
