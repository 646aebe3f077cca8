"""The normal law's CDF and quantile are plain-Python ports of Cephes'
ndtr and ndtri.  They must equal scipy.special's bit for bit, sign bit
included, everywhere: on dense grids, deep in both tails, at every branch
point of the approximations and on either side of it, and on the special
values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

from lensdepth.asymptotics import _ndtr, _ndtri

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
# ndtri switches to the tail approximations at exp(-2) and 1 - exp(-2),
# and between its two tail fits at sqrt(-2 log y) = 8, y = exp(-32).
EXP_M2 = 0.13533528323661269189
NDTRI_BRANCHES = neighbours([EXP_M2, 1.0 - EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0),
                             0.5], steps=8)
SPECIAL_Q = np.array([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -0.1, 1.1, -5e-324,
                      1.0 + 2.0 ** -52, 5e-324, 2.0 ** -1022, 1.0 - 2.0 ** -53,
                      1.0 - 2.0 ** -52, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53])


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


@pytest.mark.parametrize("qs", [
    np.linspace(0.0, 1.0, 100_001),
    np.random.default_rng(2).uniform(0.0, 1.0, 50_000),
    np.geomspace(1e-300, 0.5, 20_001),
    1.0 - np.geomspace(2.0 ** -53, 0.5, 20_001),
    NDTRI_BRANCHES,
    SPECIAL_Q,
], ids=["grid", "uniform-draws", "lower-tail", "upper-tail", "branches", "special"])
def test_ndtri_is_scipy_bit_for_bit(qs):
    assert_same_bits(_ndtri(qs), ndtri(qs))


def test_scalars_come_back_as_numpy_scalars_and_arrays_keep_their_shape():
    for port, ref, value in [(_ndtr, ndtr, 0.3), (_ndtri, ndtri, 0.3), (_ndtr, ndtr, -np.inf)]:
        got, want = port(value), ref(value)
        assert type(got) is type(want) is np.float64
        assert_same_bits(got, want)
    grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    assert_same_bits(_ndtr(grid), ndtr(grid))
    assert_same_bits(_ndtri(grid), ndtri(grid))
    assert_same_bits(_ndtr([-1, 0, 2]), ndtr([-1, 0, 2]))
    assert_same_bits(_ndtri(np.empty(0)), ndtri(np.empty(0)))


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_ndtr_matches_scipy_on_any_finite_double(x):
    assert_same_bits(_ndtr(x), ndtr(x))


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_ndtri_matches_scipy_on_the_unit_interval(q):
    assert_same_bits(_ndtri(q), ndtri(q))
