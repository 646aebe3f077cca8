"""Depth level sets on evaluation geometries and Hausdorff distances.

Level sets are extensional: membership of the evaluation points, never
an analytic region.  The evaluation geometry is either an axis-aligned
lattice over a box (with spacing-aware neighbor structure and a virtual
exterior one step outside the box) or the sample itself with a
symmetrized k-nearest-neighbor graph.  A lattice reads each point's
lowest and highest neighbor value off one pass of shifted copies
(`LatticeGrid.neighbor_extremes`): of a member mask for its inner
boundary, of the depth-order ranks for the ψ walks of `dispersion`.
The kNN graph walks each member's neighbor list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .depth import DepthField, Sample
from .metrics import MetricSpace


# Cross-matrix entries per block of `_row_blocks`: bounds the temporaries
# of the Hausdorff distance and of nearest indices.
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


def _row_blocks(count: int, width: int):
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
    for rows in _row_blocks(len(a), len(b)):
        cross = space.cross_matrix(a[rows], b)
        a_to_b = max(a_to_b, float(cross.min(axis=1).max()))
        np.minimum(b_to_a, cross.min(axis=0), out=b_to_a)
    return float(max(a_to_b, b_to_a.max()))


def nearest_indices(points, targets, space: MetricSpace) -> np.ndarray:
    """Index of the nearest point of `targets` for each of `points`
    (ties resolved to the lowest index), over `_row_blocks`."""
    out = np.empty(len(points), dtype=np.int64)
    for rows in _row_blocks(len(points), len(targets)):
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

    def neighbor_extremes(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Lowest and highest of the integer `values` (one per point, in
        flat order) over each point's 2d axis neighbors; a position
        outside the lattice reads -1."""
        shape = self.shape
        core = (slice(1, -1),) * len(shape)
        padded = np.full(tuple(size + 2 for size in shape), -1, dtype=np.asarray(values).dtype)
        padded[core] = np.reshape(values, shape)
        low = np.full(shape, np.iinfo(padded.dtype).max, dtype=padded.dtype)
        high = np.full(shape, -1, dtype=padded.dtype)
        for d, size in enumerate(shape):
            for delta in (-1, 1):
                at = list(core)
                at[d] = slice(1 + delta, size + 1 + delta)
                np.minimum(low, padded[tuple(at)], out=low)
                np.maximum(high, padded[tuple(at)], out=high)
        return low.ravel(), high.ravel()

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
        low = grid.neighbor_extremes(mask.astype(np.int8))[0]
        return np.flatnonzero(mask & (low < 1))
    out = [int(i) for i in np.flatnonzero(mask)
           if any(not mask[j] for j in grid.neighbor_indices(int(i)))]
    return np.array(out, dtype=np.int64)


def boundary_points(ls: LevelSet, grid) -> np.ndarray:
    """Inner boundary: members with at least one non-member (or
    out-of-lattice) neighbor."""
    if len(ls.field.values) != len(grid):
        raise LevelSetError("level set and grid have different point counts")
    return inner_boundary(ls.member_mask, grid)
