"""Depth level sets on evaluation geometries, set distances, and the
set summaries used for dispersion comparison.

Level sets are extensional: membership of the evaluation points, never
an analytic region.  The evaluation geometry is either an axis-aligned
lattice over a box (with spacing-aware neighbor structure and a virtual
exterior one step outside the box) or the sample itself with a
symmetrized k-nearest-neighbor graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .depth import DepthField, Sample
from .metrics import MetricSpace


_BLOCK_ENTRIES = 1 << 20


class LevelSetError(ValueError):
    """Invalid level-set operation."""


@dataclass(frozen=True)
class LevelSet:
    """Indices of evaluation points whose depth reaches the threshold."""

    lam: float
    members: np.ndarray
    field: DepthField

    def __len__(self):
        return len(self.members)

    @property
    def member_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.field.values), dtype=bool)
        mask[self.members] = True
        return mask

    def member_points(self):
        return _take(self.field.points, self.members)


def level_set(field: DepthField, lam: float) -> LevelSet:
    """Evaluation points with depth >= lam (ties included); may be empty."""
    if lam < 0:
        raise LevelSetError(f"level must be nonnegative, got {lam}")
    members = np.flatnonzero(field.values >= lam)
    return LevelSet(float(lam), members, field)


def hausdorff(a, b, space: MetricSpace) -> float:
    """Hausdorff distance between two nonempty finite point sets:
    the larger of the two directed farthest-nearest distances."""
    if len(a) == 0 or len(b) == 0:
        raise LevelSetError("Hausdorff distance is undefined for empty sets")
    # Row blocks of the cross matrix keep temporaries near _BLOCK_ENTRIES;
    # min and max are exact, so the value does not depend on the blocking.
    rows = max(1, _BLOCK_ENTRIES // len(b))
    a_to_b = 0.0
    b_to_a = np.full(len(b), np.inf)
    for lo in range(0, len(a), rows):
        cross = space.cross_matrix(a[lo:lo + rows], b)
        a_to_b = max(a_to_b, float(cross.min(axis=1).max()))
        np.minimum(b_to_a, cross.min(axis=0), out=b_to_a)
    return float(max(a_to_b, b_to_a.max()))


def nearest_indices(points, targets, space: MetricSpace,
                    chunk: int = 4096) -> np.ndarray:
    """Index of the nearest point of `targets` for each of `points`
    (ties resolved to the lowest index)."""
    out = np.empty(len(points), dtype=np.int64)
    for lo in range(0, len(points), chunk):
        hi = min(lo + chunk, len(points))
        out[lo:hi] = space.cross_matrix(points[lo:hi], targets).argmin(axis=1)
    return out


def contains(ls: LevelSet, points, space: MetricSpace | None = None) -> np.ndarray:
    """Membership of arbitrary points, decided at the nearest evaluation
    point of the level set's field."""
    space = space or ls.field.space
    idx = nearest_indices(points, ls.field.points, space)
    return ls.field.values[idx] >= ls.lam


def measure_distance(a: LevelSet, b: LevelSet, reference: Sample) -> float:
    """Fraction of reference points falling in exactly one of the two sets.

    Both level sets must share the evaluation geometry; membership of a
    reference point is decided by thresholding each field at the
    reference point's nearest evaluation point.
    """
    if reference.n == 0:
        raise LevelSetError("empty reference sample")
    if len(a.field.values) != len(b.field.values):
        raise LevelSetError("level sets live on different evaluation geometries")
    idx = nearest_indices(reference.points, a.field.points, reference.space)
    in_a = a.field.values[idx] >= a.lam
    in_b = b.field.values[idx] >= b.lam
    return float(np.mean(in_a != in_b))


# ---------------------------------------------------------------------------
# Evaluation geometries


@dataclass(frozen=True)
class LatticeGrid:
    """Axis-aligned lattice over a box, points in C order.

    `axes` holds (lo, hi, step) per dimension.  Without `wrap`, lattice
    positions one step outside the box act as non-member virtual
    neighbors, so a full-grid level set still has a boundary.
    """

    axes: tuple[tuple[float, float, float], ...]
    wrap: bool = False
    _axis_values: tuple = field(init=False, repr=False, compare=False, default=())
    _points: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        values = []
        for lo, hi, step in self.axes:
            if step <= 0 or hi < lo:
                raise LevelSetError(f"bad axis ({lo}, {hi}, {step})")
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            values.append(lo + step * np.arange(count))
        object.__setattr__(self, "_axis_values", tuple(values))
        mesh = np.meshgrid(*values, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        object.__setattr__(self, "_points", pts)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self._axis_values)

    def __len__(self):
        return len(self._points)

    def neighbor_indices(self, i: int):
        """Flat indices of the 2d axis neighbors; None marks a position
        outside the lattice (only without wrap)."""
        shape = self.shape
        coords = np.unravel_index(i, shape)
        out = []
        for d, size in enumerate(shape):
            for delta in (-1, 1):
                c = coords[d] + delta
                if self.wrap:
                    c %= size
                elif c < 0 or c >= size:
                    out.append(None)
                    continue
                nb = list(coords)
                nb[d] = c
                out.append(int(np.ravel_multi_index(nb, shape)))
        return out

    def exterior_distance(self, x) -> float:
        """Distance from `x` to the nearest virtual exterior lattice point."""
        best = math.inf
        for d, (lo, hi, step) in enumerate(self.axes):
            last = self._axis_values[d][-1]
            best = min(best, x[d] - (lo - step), (last + step) - x[d])
        return best

    def describe(self) -> str:
        return "lattice " + ",".join(f"{lo}:{hi}:{step}" for lo, hi, step in self.axes)


@dataclass(frozen=True)
class KnnGrid:
    """Sample-based evaluation geometry with a symmetrized kNN graph."""

    points: object
    space: MetricSpace
    k: int = 8
    _adj: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        n = len(self.points)
        if n < 2:
            raise LevelSetError("kNN geometry needs at least 2 points")
        k = min(self.k, n - 1)
        cross = self.space.cross_matrix(self.points, self.points)
        np.fill_diagonal(cross, np.inf)
        order = np.argsort(cross, axis=1, kind="stable")[:, :k]
        adj = [set(map(int, row)) for row in order]
        for i, row in enumerate(order):      # symmetrize: union of both directions
            for j in row:
                adj[int(j)].add(i)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(s)) for s in adj))

    def __len__(self):
        return len(self.points)

    def neighbor_indices(self, i: int):
        return list(self._adj[i])

    def describe(self) -> str:
        return f"knn-graph k={self.k} n={len(self.points)}"


def inner_boundary(mask: np.ndarray, grid) -> np.ndarray:
    """Ascending indices of the points in `mask` with at least one
    neighbor outside it (or outside the lattice)."""
    out = [int(i) for i in np.flatnonzero(mask)
           if any(j is None or not mask[j] for j in grid.neighbor_indices(int(i)))]
    return np.array(out, dtype=np.int64)


def boundary_points(ls: LevelSet, grid) -> np.ndarray:
    """Inner boundary: members with at least one non-member (or
    out-of-lattice) neighbor."""
    if len(ls.field.values) != len(grid):
        raise LevelSetError("level set and grid have different point counts")
    return inner_boundary(ls.member_mask, grid)


# ---------------------------------------------------------------------------
# Set summaries


class PsiVolume(NamedTuple):
    value: float
    stderr: float


def psi_diameter(points, space: MetricSpace) -> float:
    """Largest pairwise distance; 0 for a singleton."""
    if len(points) == 0:
        raise LevelSetError("diameter of an empty set")
    return float(nested_diameters(points, space, [len(points)], np.arange(len(points)))[0])


def psi_inradius(members, complement, space: MetricSpace, grid=None) -> float:
    """Largest distance from a member to its nearest non-member point.

    When `grid` is a bounded `LatticeGrid`, its virtual exterior points
    count as non-members too, so `complement` may be empty.  On a
    discrete evaluation set this approximates the inradius with bias at
    most the point spacing.
    """
    points = (list(complement) + members if isinstance(members, list)
              else np.concatenate([complement, members]))
    order = np.arange(len(points))
    return float(nested_inradii(points, space, [len(members)], order, grid)[0])


def nested_diameters(points, space: MetricSpace, counts, order,
                     pair_matrix: np.ndarray | None = None) -> np.ndarray:
    """Diameters of the prefixes `points[order[:c]]`, c in `counts`.
    Each point added in `order` raises a running maximum by its
    distances to the points added before it, read from `pair_matrix`
    when given, so temporaries are O(N)."""
    ordered = _take(points, order)
    prefix = np.zeros(max(counts, default=0) + 1)   # prefix[c]: first c points
    for k in range(1, len(prefix) - 1):
        row = (space.dists_to(ordered[:k], ordered[k]) if pair_matrix is None
               else pair_matrix[order[k], order[:k]])
        prefix[k + 1] = max(prefix[k], row.max())
    return prefix[counts]


def nested_inradii(points, space: MetricSpace, counts, order, grid=None) -> np.ndarray:
    """Inradii of the members `points[order[N-c:]]` against the rest, for
    nonincreasing `counts` (0 for c = 0).  Points move to the complement
    in `order`; each member keeps a running minimum distance to it, from
    a bounded `LatticeGrid`'s exterior or +inf, so temporaries are O(N)."""
    pts = _take(points, order)
    n = len(pts)
    bounded = isinstance(grid, LatticeGrid) and not grid.wrap
    nearest = (np.array([grid.exterior_distance(p) for p in pts]) if bounded
               else np.full(n, np.inf))
    out, moved = np.zeros(len(counts)), 0
    for j, c in enumerate(c for c in counts if c):
        if c == n and not bounded:
            raise LevelSetError(
                "inradius is undefined with an empty complement outside a "
                "bounded lattice; start the level grid above 0")
        for k in range(moved, n - c):
            np.minimum(nearest[k + 1:], space.dists_to(pts[k + 1:], pts[k]),
                       out=nearest[k + 1:])
        moved = n - c
        out[j] = nearest[n - c:].max()
    return out


def _take(points, idx):
    if isinstance(points, list):
        return [points[i] for i in idx]
    return points[idx]


def psi_volume(ls: LevelSet, reference: Sample, reference_mass: float) -> PsiVolume:
    """Estimated measure of the set: `reference_mass` times the fraction
    of reference points in it, with the binomial standard error."""
    if reference.n == 0:
        raise LevelSetError("empty reference sample")
    inside = contains(ls, reference.points, reference.space)
    frac = float(inside.mean())
    se = reference_mass * math.sqrt(frac * (1.0 - frac) / reference.n)
    return PsiVolume(reference_mass * frac, se)
