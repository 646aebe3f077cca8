"""Dispersion comparison of random elements through their depth level sets.

A `PsiCurve` tabulates a set summary (diameter, inradius, or measure) of
the depth level sets along a grid of levels.  Curves are compared by the
spread-out relation, strong/weak dominance, and the gamma coefficient
(the fraction of levels at which one curve dominates the other).  The
closed-form Student-t versus normal gamma is provided with two
independent numerical methods that cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.stats import norm, t as student_t

from .depth import DepthField, Sample
from .levelsets import LatticeGrid, nearest_indices, nested_diameters, nested_inradii

PSI_KINDS = ("diam", "inradius", "volume")


class DispersionError(ValueError):
    """Invalid dispersion comparison."""


@dataclass(frozen=True)
class PsiCurve:
    """Level-set summary values along an increasing grid of levels.

    `empty_from` is the smallest grid level with an empty level set
    (values there are 0 by convention), None if none is empty.
    """

    lambdas: np.ndarray
    values: np.ndarray
    kind: str
    region: str = ""
    empty_from: float | None = None

    def __post_init__(self):
        if self.kind not in PSI_KINDS:
            raise DispersionError(f"unknown psi kind {self.kind!r}")
        if len(self.lambdas) != len(self.values):
            raise DispersionError("grid and value lengths differ")
        if len(self.lambdas) < 2:
            raise DispersionError("a psi curve needs at least 2 grid levels")
        if not np.all(np.diff(self.lambdas) > 0):
            raise DispersionError("the level grid must be strictly increasing")

    def scaled(self, factor: float) -> "PsiCurve":
        return PsiCurve(self.lambdas, self.values * factor, self.kind,
                        self.region, self.empty_from)


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a dispersion-order check.

    `witness` is the level (or pooled distance value) of the first
    violation and is present exactly when the relation fails;
    `margin` is the smallest slack over all checked inequalities
    (negative when violated).
    """

    relation: str
    holds: bool
    witness: float | None
    margin: float
    region: str = ""

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise DispersionError("witness must be absent when the relation holds")
        if not self.holds and self.witness is None:
            raise DispersionError("witness required when the relation fails")


def default_lambda_grid(*fields: DepthField, count: int = 200) -> np.ndarray:
    """Equispaced levels on [0, s] with s the largest observed depth."""
    s = max(f.max_value for f in fields)
    if s <= 0:
        raise DispersionError("all depth values are zero; no usable level range")
    return np.linspace(0.0, s, count)


def psi_curve(field: DepthField, kind: str, lambdas, *,
              grid: LatticeGrid | None = None,
              reference: Sample | None = None,
              reference_mass: float = 1.0,
              pair_matrix: np.ndarray | None = None) -> PsiCurve:
    """Summary of the field's level sets at every grid level.

    The level sets are nested, so diam and inradius each take one pass
    over the N evaluation points in depth order, with O(N) temporaries
    and no N x N matrix; diam reads `pair_matrix` when a caller has one
    cached.  inradius measures against the non-member evaluation points,
    plus the virtual exterior of a bounded lattice; volume needs a
    reference sample of known total mass.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) <= 0):
        raise DispersionError("the level grid must be strictly increasing")
    if kind not in PSI_KINDS:
        raise DispersionError(f"unknown psi kind {kind!r}")
    depths = field.values
    counts = len(depths) - np.searchsorted(np.sort(depths), lambdas, side="left")
    if kind == "diam":
        values = nested_diameters(field.points, field.space, counts,
                                  np.argsort(-depths), pair_matrix)
    elif kind == "inradius":
        values = nested_inradii(field.points, field.space, counts,
                                np.argsort(depths), grid)
    else:
        if reference is None:
            raise DispersionError("volume curves need a reference sample")
        ref = depths[nearest_indices(reference.points, field.points, reference.space)]
        values = np.array([reference_mass * float(np.mean(ref >= lam)) if c else 0.0
                           for lam, c in zip(lambdas, counts)])
    empty_from = float(lambdas[counts == 0][0]) if (counts == 0).any() else None
    region = grid.describe() if grid is not None else f"eval-set[{len(field.values)}]"
    return PsiCurve(lambdas, values, kind, region, empty_from)


def _check_pair(cx: PsiCurve, cy: PsiCurve):
    if cx.kind != cy.kind:
        raise DispersionError(f"psi kinds differ: {cx.kind} vs {cy.kind}")
    if len(cx.lambdas) != len(cy.lambdas) or not np.array_equal(cx.lambdas, cy.lambdas):
        raise DispersionError("curves live on different level grids")


def spread_out_ge(cx: PsiCurve, cy: PsiCurve, tol: float = 0.0) -> OrderVerdict:
    """Check that X is at least as spread out as Y: over every level pair
    p1 < p2, X's psi decrement dominates Y's within `tol`.

    Equivalent to the difference curve psi_X - psi_Y being nonincreasing.
    """
    _check_pair(cx, cy)
    diff = cx.values - cy.values
    running_min = np.minimum.accumulate(diff)
    # violation at p2: diff[p2] - min_{p1 < p2} diff[p1] > tol
    excess = diff[1:] - running_min[:-1]
    worst = float(excess.max())
    holds = worst <= tol
    witness = None if holds else float(cx.lambdas[1:][int(np.argmax(excess))])
    return OrderVerdict("spread-out", holds, witness, -worst, cx.region)


def strong_order(cx: PsiCurve, cy: PsiCurve, tol: float = 0.0) -> OrderVerdict:
    """Pointwise dominance: psi_X >= psi_Y at every grid level."""
    _check_pair(cx, cy)
    gap = cy.values - cx.values
    worst = float(gap.max())
    holds = worst <= tol
    witness = None if holds else float(cx.lambdas[int(np.argmax(gap))])
    return OrderVerdict("strong", holds, witness, -worst, cx.region)


def weak_order(cx: PsiCurve, cy: PsiCurve, tol: float = 0.0) -> OrderVerdict:
    """Integrated dominance: the trapezoidal integral of psi_X - psi_Y
    over the grid is nonnegative."""
    _check_pair(cx, cy)
    diff = cx.values - cy.values
    integral = float(np.trapezoid(diff, cx.lambdas))
    holds = integral >= -tol
    witness = None if holds else float(cx.lambdas[int(np.argmin(diff))])
    return OrderVerdict("weak", holds, witness, integral, cx.region)


def gamma(cx: PsiCurve, cy: PsiCurve, sup_bound: float | None = None) -> float:
    """Fraction of the level range on which psi_X >= psi_Y, under
    piecewise-linear interpolation of both curves between grid levels.

    Identical curves give exactly 1.  `sup_bound`, when given, only
    validates that the grid realizes [0, sup_bound].
    """
    _check_pair(cx, cy)
    if np.isnan(cx.values).any() or np.isnan(cy.values).any():
        raise DispersionError("curves contain undefined (NaN) psi values")
    if sup_bound is not None:
        if sup_bound <= 0:
            raise DispersionError(f"sup bound must be positive, got {sup_bound}")
        lo, hi = float(cx.lambdas[0]), float(cx.lambdas[-1])
        if abs(lo) > 1e-12 or abs(hi - sup_bound) > 1e-9:
            raise DispersionError(
                f"grid [{lo}, {hi}] does not realize [0, {sup_bound}]")
    d = cx.values - cy.values
    seg = np.diff(cx.lambdas)
    d0, d1 = d[:-1], d[1:]
    frac = np.empty(len(seg))
    both_ge = (d0 >= 0) & (d1 >= 0)
    both_lt = (d0 < 0) & (d1 < 0)
    frac[both_ge] = 1.0
    frac[both_lt] = 0.0
    cross_down = (d0 >= 0) & (d1 < 0)
    cross_up = (d0 < 0) & (d1 >= 0)
    frac[cross_down] = d0[cross_down] / (d0[cross_down] - d1[cross_down])
    frac[cross_up] = d1[cross_up] / (d1[cross_up] - d0[cross_up])
    # When every interval is fully covered the two sums are term-for-term
    # identical floats, so the ratio is exactly 1.
    covered = float((frac * seg).sum())
    total = float(seg.sum())
    return covered / total


class TNGamma(NamedTuple):
    """Gamma of a Student-t element against a centred normal."""
    gamma: float
    two_gamma: float


def _tn_dominates(lam: np.ndarray, v: float, sigma: float) -> np.ndarray:
    """Indicator that the t(v) level-set width beats the N(0, sigma^2) one.

    Both level sets are central quantile intervals; by symmetry the
    comparison reduces to the upper quantiles at (1 + sqrt(1-2*lam))/2.
    """
    u = (1.0 + np.sqrt(np.maximum(1.0 - 2.0 * lam, 0.0))) / 2.0
    return student_t.ppf(u, v) >= sigma * norm.ppf(u)


def gamma_t_vs_normal(v: float, sigma: float, *, method: str = "quadrature",
                      points: int = 100_000) -> TNGamma:
    """Gamma for X ~ t(v) against Y ~ N(0, sigma^2) on the line.

    Population level sets are closed-form quantile intervals, and the
    level range is (0, 1/2].  `method="quadrature"` integrates the
    dominance indicator on a midpoint grid; `method="bisection"`
    locates every dominance crossing by sign scanning plus bisection and
    sums interval lengths.  The two agree to ~1/points.
    """
    if v < 1:
        raise DispersionError(f"degrees of freedom must be >= 1, got {v}")
    if sigma <= 0:
        raise DispersionError(f"sigma must be positive, got {sigma}")
    if method == "quadrature":
        lam = (np.arange(points) + 0.5) * (0.5 / points)
        g = float(_tn_dominates(lam, v, sigma).mean())
        return TNGamma(g, 2.0 * g)
    if method != "bisection":
        raise DispersionError(f"unknown method {method!r}")
    coarse = 2048
    lam = (np.arange(coarse) + 0.5) * (0.5 / coarse)
    # The dominance region can pinch arbitrarily close to either endpoint
    # (heavy t tails always win as the level approaches 0), so pad the
    # scan with geometric sentinels near both ends.
    edges = 0.5 * np.power(10.0, -np.arange(1, 14, dtype=float))
    lam = np.unique(np.concatenate([lam, edges, 0.5 - edges]))
    dom = _tn_dominates(lam, v, sigma)
    bounds = [0.0]
    for i in range(len(lam) - 1):
        if dom[i] != dom[i + 1]:
            lo, hi = lam[i], lam[i + 1]
            flo = dom[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if bool(_tn_dominates(np.array([mid]), v, sigma)[0]) == flo:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-13:
                    break
            bounds.append(0.5 * (lo + hi))
    bounds.append(0.5)
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = np.array([0.5 * (lo + hi)])
        if bool(_tn_dominates(mid, v, sigma)[0]):
            total += hi - lo
    g = total / 0.5
    return TNGamma(g, 2.0 * g)


def gamma_t_vs_normal_grid(vs, sigmas, points: int = 100_000) -> np.ndarray:
    """Quadrature gamma over a (v, sigma) grid, shaped (len(vs), len(sigmas)).

    The dominance indicator compares the quantile ratio t/normal against
    sigma, so each v needs a single pair of quantile evaluations.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if np.any(sigmas <= 0):
        raise DispersionError("sigma grid must be positive")
    lam = (np.arange(points) + 0.5) * (0.5 / points)
    u = (1.0 + np.sqrt(1.0 - 2.0 * lam)) / 2.0
    qn = norm.ppf(u)
    out = np.empty((len(vs), len(sigmas)))
    for i, v in enumerate(vs):
        if v < 1:
            raise DispersionError(f"degrees of freedom must be >= 1, got {v}")
        ratio = student_t.ppf(u, v) / qn
        for j, sigma in enumerate(sigmas):
            out[i, j] = float((ratio >= sigma).mean())
    return out


def giovagnoli_order(sx: Sample, sy: Sample, tol: float = 0.0) -> OrderVerdict:
    """Distance-based stochastic dominance: X is more disperse than Y
    when the ECDF of X's pairwise distances never exceeds Y's at any
    pooled evaluation point."""
    if sx.n < 2 or sy.n < 2:
        raise DispersionError("both samples need at least 2 points")
    dx = np.sort(sx.distance_matrix[np.triu_indices(sx.n, 1)])
    dy = np.sort(sy.distance_matrix[np.triu_indices(sy.n, 1)])
    pool = np.unique(np.concatenate([dx, dy]))
    fx = np.searchsorted(dx, pool, side="right") / len(dx)
    fy = np.searchsorted(dy, pool, side="right") / len(dy)
    gaps = fx - fy
    worst = float(gaps.max())
    holds = worst <= tol
    witness = None if holds else float(pool[int(np.argmax(gaps))])
    return OrderVerdict("giovagnoli", holds, witness, -worst)


def refined_lambda_grid(fx, fy, lo: float, hi: float, *,
                        base: int = 200, rounds: int = 25) -> np.ndarray:
    """Level grid refined around the crossings of two callable curves.

    Starts from an equispaced grid and repeatedly bisects every interval
    whose endpoints disagree in the sign of fx - fy.
    """
    grid = np.linspace(lo, hi, base)
    for _ in range(rounds):
        d = np.asarray(fx(grid)) - np.asarray(fy(grid))
        sign = d >= 0
        flips = np.flatnonzero(sign[:-1] != sign[1:])
        if len(flips) == 0:
            break
        mids = 0.5 * (grid[flips] + grid[flips + 1])
        merged = np.unique(np.concatenate([grid, mids]))
        if len(merged) == len(grid):
            break
        grid = merged
    return grid
