"""Depth level sets on evaluation geometries, Hausdorff distances, and
the one-pass set summaries used for dispersion comparison.

Level sets are extensional: membership of the evaluation points, never
an analytic region.  The evaluation geometry is either an axis-aligned
lattice over a box (with spacing-aware neighbor structure and a virtual
exterior one step outside the box) or the sample itself with a
symmetrized k-nearest-neighbor graph.  A lattice finds the inner and
outer boundaries of a member mask by shifting the mask one step along
each axis (`LatticeGrid.boundaries`); the kNN graph walks each member's
neighbor list.  The one-pass ψ sweeps `nested_diameters` and
`nested_inradii` work on any evaluation set; `dispersion` reads the
curves of a Euclidean lattice off these boundaries instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .depth import DepthField, Sample
from .metrics import MetricSpace


# Cross-matrix entries per block of `row_blocks`: bounds the temporaries
# of the Hausdorff distance, nearest indices and the lattice psi curves.
_BLOCK_ENTRIES = 1 << 16


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


def level_set(field: DepthField, lam: float) -> LevelSet:
    """Evaluation points with depth >= lam (ties included); may be empty."""
    if not (np.isfinite(lam) and lam >= 0):
        raise LevelSetError(f"level must be finite and nonnegative, got {lam}")
    members = np.flatnonzero(field.values >= lam)
    return LevelSet(float(lam), members, field)


def row_blocks(count: int, width: int):
    """Consecutive slices of `count` rows, each small enough that its
    cross matrix against `width` columns holds about _BLOCK_ENTRIES
    entries (one row at least)."""
    size = max(1, _BLOCK_ENTRIES // max(width, 1))
    return (slice(lo, lo + size) for lo in range(0, count, size))


def hausdorff(a, b, space: MetricSpace) -> float:
    """Hausdorff distance between two nonempty finite point sets:
    the larger of the two directed farthest-nearest distances."""
    if len(a) == 0 or len(b) == 0:
        raise LevelSetError("Hausdorff distance is undefined for empty sets")
    # min and max are exact, so the value does not depend on the blocking.
    a_to_b = 0.0
    b_to_a = np.full(len(b), np.inf)
    for rows in row_blocks(len(a), len(b)):
        cross = space.cross_matrix(a[rows], b)
        a_to_b = max(a_to_b, float(cross.min(axis=1).max()))
        np.minimum(b_to_a, cross.min(axis=0), out=b_to_a)
    return float(max(a_to_b, b_to_a.max()))


def nearest_indices(points, targets, space: MetricSpace) -> np.ndarray:
    """Index of the nearest point of `targets` for each of `points`
    (ties resolved to the lowest index), over `row_blocks`."""
    out = np.empty(len(points), dtype=np.int64)
    for rows in row_blocks(len(points), len(targets)):
        out[rows] = space.cross_matrix(points[rows], targets).argmin(axis=1)
    return out


# ---------------------------------------------------------------------------
# Evaluation geometries


def expand_range(lo: float, hi: float, step: float, error=LevelSetError) -> np.ndarray:
    """lo, lo + step, ... up to hi, which is included when a step lands
    within 1e-9 steps of it.  A count that numpy refuses to hold raises
    `error`."""
    try:
        return lo + step * np.arange(math.floor((hi - lo) / step + 1e-9) + 1)
    except (ValueError, MemoryError, OverflowError):
        raise error(f"range {lo}:{hi}:{step} has too many points") from None


@dataclass(frozen=True)
class LatticeGrid:
    """Axis-aligned lattice over a box, points in C order.

    `axes` holds finite (lo, hi, step) per dimension.  Lattice positions
    one step outside the box act as non-member virtual neighbors, so a
    full-grid level set still has a boundary.
    """

    axes: tuple[tuple[float, float, float], ...]
    _axis_values: tuple = field(init=False, repr=False, compare=False, default=())
    _points: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        values = []
        for lo, hi, step in self.axes:
            if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
                raise LevelSetError(f"bad axis ({lo}, {hi}, {step})")
            values.append(expand_range(lo, hi, step))
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

    def boundaries(self, mask) -> tuple[np.ndarray, np.ndarray]:
        """Ascending flat indices of the inner boundary of the member
        `mask` (members with a non-member or out-of-lattice neighbor) and
        of its outer boundary (non-members with a member neighbor)."""
        shape = self.shape
        core = (slice(1, -1),) * len(shape)
        padded = np.zeros(tuple(size + 2 for size in shape), dtype=bool)
        padded[core] = np.reshape(mask, shape)
        inside = padded[core]
        all_in, any_in = np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)
        for d, size in enumerate(shape):
            for delta in (-1, 1):
                at = list(core)
                at[d] = slice(1 + delta, size + 1 + delta)
                all_in &= padded[tuple(at)]
                any_in |= padded[tuple(at)]
        return np.flatnonzero(inside & ~all_in), np.flatnonzero(~inside & any_in)

    def exterior_distance(self, x) -> np.ndarray:
        """Distance from each point of the (m, d) array `x` to the
        nearest virtual exterior lattice point."""
        best = np.full(len(x), np.inf)
        for d, (lo, _, step) in enumerate(self.axes):
            last = self._axis_values[d][-1]
            best = np.minimum(best, x[:, d] - (lo - step))
            best = np.minimum(best, (last + step) - x[:, d])
        return best

    def describe(self) -> str:
        return "lattice " + ",".join(f"{lo}:{hi}:{step}" for lo, hi, step in self.axes)


@dataclass(frozen=True)
class KnnGrid:
    """The sample's own points as evaluation geometry, with the
    symmetrized k-nearest-neighbor graph of its cached distance matrix."""

    sample: Sample
    k: int = 8
    _adj: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.k < 1:
            raise LevelSetError(f"kNN geometry needs k >= 1, got {self.k}")
        n = self.sample.n
        if n < 2:
            raise LevelSetError("kNN geometry needs at least 2 points")
        k = min(self.k, n - 1)
        dist = self.sample.distance_matrix.copy()   # the cache stays untouched
        np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        adj = [set(map(int, row)) for row in order]
        for i, row in enumerate(order):      # symmetrize: union of both directions
            for j in row:
                adj[int(j)].add(i)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(s)) for s in adj))

    def __len__(self):
        return self.sample.n

    def neighbor_indices(self, i: int):
        return list(self._adj[i])


def inner_boundary(mask: np.ndarray, grid) -> np.ndarray:
    """Ascending indices of the points in `mask` with at least one
    neighbor outside it (or outside the lattice)."""
    if isinstance(grid, LatticeGrid):
        return grid.boundaries(mask)[0]
    out = [int(i) for i in np.flatnonzero(mask)
           if any(not mask[j] for j in grid.neighbor_indices(int(i)))]
    return np.array(out, dtype=np.int64)


def boundary_points(ls: LevelSet, grid) -> np.ndarray:
    """Inner boundary: members with at least one non-member (or
    out-of-lattice) neighbor."""
    if len(ls.field.values) != len(grid):
        raise LevelSetError("level set and grid have different point counts")
    return inner_boundary(ls.member_mask, grid)


# ---------------------------------------------------------------------------
# Set summaries


def nested_diameters(points, space: MetricSpace, counts, order,
                     pair_matrix: np.ndarray | None = None) -> np.ndarray:
    """Diameters of the prefixes `points[order[:c]]`, c in `counts`.
    Each point added in `order` raises a running maximum by its
    distances to the points added before it, read from `pair_matrix`
    when given, so temporaries are O(N)."""
    ordered = points[order]
    prefix = np.zeros(max(counts, default=0) + 1)   # prefix[c]: first c points
    for k in range(1, len(prefix) - 1):
        row = (space.dists_to(ordered[:k], ordered[k]) if pair_matrix is None
               else pair_matrix[order[k], order[:k]])
        prefix[k + 1] = max(prefix[k], row.max())
    return prefix[counts]


def nested_inradii(points, space: MetricSpace, counts, order,
                   grid: LatticeGrid | None = None) -> np.ndarray:
    """Inradii of the members `points[order[N-c:]]` against the rest, for
    nonincreasing `counts` (0 for c = 0).  Points move to the complement
    in `order`; each member keeps a running minimum distance to it, from
    the lattice's exterior or +inf, so temporaries are O(N)."""
    pts = points[order]
    n = len(pts)
    nearest = np.full(n, np.inf) if grid is None else grid.exterior_distance(pts)
    out, moved = np.zeros(len(counts)), 0
    for j, c in enumerate(c for c in counts if c):
        if c == n and grid is None:
            raise LevelSetError(
                "inradius is undefined with an empty complement outside a "
                "lattice; start the level grid above 0")
        for k in range(moved, n - c):
            np.minimum(nearest[k + 1:], space.dists_to(pts[k + 1:], pts[k]),
                       out=nearest[k + 1:])
        moved = n - c
        out[j] = nearest[n - c:].max()
    return out
