"""Dispersion comparison of random elements through their depth level sets.

A `PsiCurve` tabulates a set summary (diameter, inradius, or measure) of
the depth level sets along a grid of levels.  The diameter and the
inradius are each one walk over the evaluation points in depth order; a
lattice only decides which points the walk measures.  Curves are
compared by the spread-out relation, strong/weak dominance, and the
gamma coefficient (the fraction of levels at which one curve dominates
the other).  The closed-form Student-t versus normal gamma is tabulated
by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth import DepthField, Sample
from .levelsets import LatticeGrid, LevelSetError, nearest_indices
from .metrics import EuclideanSpace

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
    """`count` >= 2 equispaced levels on [0, s] with s the largest
    observed depth."""
    if count < 2:
        raise DispersionError(f"a level grid needs at least 2 levels, got {count}")
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

    inradius measures against the non-member evaluation points, plus the
    virtual exterior of the lattice `grid`; volume needs a reference
    sample of known total mass.  The level sets are nested, so diam and
    inradius each take one walk over the N evaluation points in depth
    order, with O(N) temporaries and no N x N matrix; distances are read
    from `pair_matrix` when a caller has one cached.  On a Euclidean
    field over the points of `grid`, the lattice decides which points the
    walk measures (`_diameters`, `_inradii`); elsewhere it measures them
    all.  Either way the floats are the same.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) <= 0):
        raise DispersionError("the level grid must be strictly increasing")
    if kind not in PSI_KINDS:
        raise DispersionError(f"unknown psi kind {kind!r}")
    depths = field.values
    n = len(depths)
    order = np.argsort(depths, kind="stable")
    # The members of level j are the depth-order positions >= starts[j].
    starts = np.searchsorted(depths[order], lambdas, side="left")
    if kind == "volume":
        if reference is None or reference.n == 0:
            raise DispersionError("volume curves need a nonempty reference sample")
        if not (np.isfinite(reference_mass) and reference_mass > 0):
            raise DispersionError(
                f"reference mass must be finite and positive, got {reference_mass}")
        ref = depths[nearest_indices(reference.points, field.points, reference.space)]
        inside = len(ref) - np.searchsorted(np.sort(ref), lambdas, side="left")
        values = reference_mass * (inside / len(ref))
    else:
        # Each point's lowest and highest neighbor position in depth order.
        # Off the lattice, -1 and n let the walks measure every point.
        low, high = np.full(n, -1), np.full(n, n)
        if (grid is not None and field.points is grid.points
                and isinstance(field.space, EuclideanSpace)):
            rank = np.argsort(order)             # each point's depth-order position
            low, high = (ext[order] for ext in grid.neighbor_extremes(rank))
        rows = _distance_rows(field, order, pair_matrix)
        if kind == "diam":
            values = _diameters(rows, starts, low)
        elif grid is None and n and starts[0] == 0:
            raise LevelSetError(
                "inradius is undefined with an empty complement outside a "
                "lattice; start the level grid above 0")
        else:
            exterior = (np.full(n, np.inf) if grid is None
                        else grid.exterior_distance(field.points)[order])
            values = _inradii(rows, starts, high, exterior)
    counts = n - starts
    empty_from = float(lambdas[counts == 0][0]) if (counts == 0).any() else None
    region = grid.describe() if grid is not None else f"eval-set[{n}]"
    return PsiCurve(lambdas, values, kind, region, empty_from)


# The walks in depth order.  On a lattice, coordinates along each axis are
# nondecreasing in the index, and `_root_sum_sq` builds a distance from
# subtraction, squaring, left-to-right addition and a square root, each
# rounding monotonically; so one lattice step away from a point never
# lowers its float distance, and one step toward it never raises it.
# Min and max are exact, and distances are symmetric bit for bit, so
# neither the order nor the source of the distances changes a value.


def _distance_rows(field: DepthField, order, pair_matrix):
    """`rows(ks, cols)`: for each depth-order position k in `ks`, its
    distances to the positions in `cols` (a slice or an ascending array)
    after k, read from `pair_matrix` when given."""
    positions = np.arange(len(order))
    if pair_matrix is None:
        points, dists = field.points[order], field.space.dists_to
    else:
        points, dists = order, lambda ids, i: pair_matrix[i, ids]

    def rows(ks, cols):
        ends, after = points[cols], np.searchsorted(positions[cols], ks, side="right")
        return (dists(ends[a:], q) for q, a in zip(points[ks], after.tolist()))
    return rows


def _diameters(rows, starts, low) -> np.ndarray:
    """Diameter of each level set, from the highest level down, so each
    holds the one before.

    The inner boundary of a level is its members with a neighbor below
    its start.  The ends of a longest pair can each step apart until they
    reach the inner boundary; if neither end is new there, the pair is
    no longer than the last diameter.  So each diameter is the last one
    or the longest distance from a new inner-boundary point to the inner
    boundary.  The new points come first in depth order, so each is
    measured against the inner boundary after it: every pair once.
    """
    out = np.zeros(len(starts))
    best, top = 0.0, len(low)
    for j in range(len(starts) - 1, -1, -1):
        s = starts[j]
        inner = s + np.flatnonzero(low[s:] < s)
        far = np.zeros(len(inner))
        for i, row in enumerate(rows(inner[:np.searchsorted(inner, top)], inner), 1):
            tail = far[i:]
            np.maximum(tail, row, out=tail)
        best = max(best, far.max(initial=0.0))
        out[j], top = best, s
    return out


def _inradii(rows, starts, high, nearest) -> np.ndarray:
    """Inradius of each level set against the non-members and the
    distances `nearest` to the outside of the evaluation set, from the
    lowest level up, so each holds the next.

    A member's nearest non-member can step toward it until it reaches
    the outer boundary, the non-members with a neighbor at or above the
    level's start.  A point joins the outer boundary only as it leaves
    the level set, so each member keeps a running minimum of `nearest`
    and its distances to the points measured as they left.
    """
    out, left, high = np.zeros(len(starts)), 0, high.tolist()
    for j, s in enumerate(starts):
        if s == len(high):
            break
        near = nearest[s:]
        for row in rows([k for k in range(left, s) if high[k] >= s], slice(s, None)):
            np.minimum(near, row, out=near)
        out[j], left = near.max(), s
    return out


def _check_pair(cx: PsiCurve, cy: PsiCurve):
    if cx.kind != cy.kind:
        raise DispersionError(f"psi kinds differ: {cx.kind} vs {cy.kind}")
    if len(cx.lambdas) != len(cy.lambdas) or not np.array_equal(cx.lambdas, cy.lambdas):
        raise DispersionError("curves live on different level grids")


def _check_tol(tol: float):
    if not np.isfinite(tol):
        raise DispersionError(f"tolerance must be finite, got {tol}")


def spread_out_ge(cx: PsiCurve, cy: PsiCurve, tol: float = 0.0) -> OrderVerdict:
    """Check that X is at least as spread out as Y: over every level pair
    p1 < p2, X's psi decrement dominates Y's within `tol`.

    Equivalent to the difference curve psi_X - psi_Y being nonincreasing.
    """
    _check_tol(tol)
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
    _check_tol(tol)
    _check_pair(cx, cy)
    gap = cy.values - cx.values
    worst = float(gap.max())
    holds = worst <= tol
    witness = None if holds else float(cx.lambdas[int(np.argmax(gap))])
    return OrderVerdict("strong", holds, witness, -worst, cx.region)


def weak_order(cx: PsiCurve, cy: PsiCurve, tol: float = 0.0) -> OrderVerdict:
    """Integrated dominance: the trapezoidal integral of psi_X - psi_Y
    over the grid is nonnegative."""
    _check_tol(tol)
    _check_pair(cx, cy)
    diff = cx.values - cy.values
    integral = float(np.trapezoid(diff, cx.lambdas))
    holds = integral >= -tol
    witness = None if holds else float(cx.lambdas[int(np.argmin(diff))])
    return OrderVerdict("weak", holds, witness, integral, cx.region)


def gamma(cx: PsiCurve, cy: PsiCurve) -> float:
    """Fraction of the level range on which psi_X >= psi_Y, under
    piecewise-linear interpolation of both curves between grid levels.

    Identical curves give exactly 1.  Equal values tie, infinite ones
    included, and a crossing from psi_X - psi_Y = +inf is at the far end
    of its segment.
    """
    _check_pair(cx, cy)
    x, y = cx.values, cy.values
    if np.isnan(x).any() or np.isnan(y).any():
        raise DispersionError("curves contain undefined (NaN) psi values")
    with np.errstate(invalid="ignore"):         # inf - inf where x == y
        d = np.where(x == y, 0.0, x - y)
    seg = np.diff(cx.lambdas)
    d0, d1 = d[:-1], d[1:]
    frac = np.empty(len(seg))
    both_ge = (d0 >= 0) & (d1 >= 0)
    both_lt = (d0 < 0) & (d1 < 0)
    frac[both_ge] = 1.0
    frac[both_lt] = 0.0
    cross_down = (d0 >= 0) & (d1 < 0)
    cross_up = (d0 < 0) & (d1 >= 0)
    with np.errstate(invalid="ignore"):         # inf / inf from d0 = +inf
        frac[cross_down] = d0[cross_down] / (d0[cross_down] - d1[cross_down])
    frac[cross_down & np.isinf(d0)] = 1.0
    frac[cross_up] = d1[cross_up] / (d1[cross_up] - d0[cross_up])
    # When every interval is fully covered the two sums are term-for-term
    # identical floats, so the ratio is exactly 1.
    covered = float((frac * seg).sum())
    total = float(seg.sum())
    return covered / total


def gamma_t_vs_normal_grid(vs, sigmas, points: int = 100_000) -> np.ndarray:
    """Quadrature gamma over a (v, sigma) grid, shaped (len(vs), len(sigmas)).

    The dominance indicator, integrated on a midpoint grid of `points`
    levels, compares the quantile ratio t/normal against sigma, so each
    v needs a single pair of quantile evaluations.  `gamma_t_vs_normal`
    in `tests/conftest.py` cross-checks it by bisection of every
    dominance crossing.
    """
    from scipy.special import ndtri, stdtrit   # deferred: slow to import

    if points < 1:
        raise DispersionError(f"quadrature needs at least 1 point, got {points}")
    sigmas = np.asarray(sigmas, dtype=float)
    if np.any(sigmas <= 0):
        raise DispersionError("sigma grid must be positive")
    lam = (np.arange(points) + 0.5) * (0.5 / points)
    u = (1.0 + np.sqrt(1.0 - 2.0 * lam)) / 2.0
    qn = ndtri(u)
    out = np.empty((len(vs), len(sigmas)))
    for i, v in enumerate(vs):
        if v < 1:
            raise DispersionError(f"degrees of freedom must be >= 1, got {v}")
        ratio = stdtrit(v, u) / qn
        for j, sigma in enumerate(sigmas):
            out[i, j] = float((ratio >= sigma).mean())
    return out


def giovagnoli_order(sx: Sample, sy: Sample, tol: float = 0.0) -> OrderVerdict:
    """Distance-based stochastic dominance: X is more disperse than Y
    when the ECDF of X's pairwise distances never exceeds Y's at any
    pooled evaluation point."""
    _check_tol(tol)
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
