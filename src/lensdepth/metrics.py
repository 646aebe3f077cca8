"""Metric spaces backing every distance computation in the package.

Concrete spaces: Euclidean R^d, the unit sphere S^{d-1} with geodesic
distance, Stiefel frame spaces (chordal or Procrustes metric), and the
tree space of weighted phylogenetic trees.

All distances funnel through the space objects, and the vectorized
helpers (`dists_to`, `cross_matrix`, `pairwise`) are written so that
they produce bit-identical floats to the scalar `distance` call.  Batch
operations elsewhere in the package rely on this to match per-point
recomputation exactly, independent of chunking or thread count.
Distance matrices are built on one thread.
"""

from __future__ import annotations

import math

import numpy as np

from . import treespace

UNIT_TOL = 1e-9
ORTHONORMAL_TOL = 1e-9


class MetricError(ValueError):
    """Base class for metric-space errors."""


class PointValidationError(MetricError):
    """A point does not belong to the space it was used with."""


class SpaceMismatchError(MetricError):
    """Two operands live in different (or differently sized) spaces."""


class MetricSpace:
    """A metric space: point validation plus scalar and batch distances.

    `points` containers are numpy arrays for the vector spaces (first
    axis indexes points) and plain lists for tree space.
    """

    kind = "abstract"

    def coerce_points(self, points):
        """Validate and return the canonical container for a point set."""
        raise NotImplementedError

    def coerce_point(self, p):
        raise NotImplementedError

    def distance(self, p, q) -> float:
        raise NotImplementedError

    def dists_to(self, points, q) -> np.ndarray:
        """Distances from every point of `points` to the single point `q`."""
        raise NotImplementedError

    def paired_distances(self, ps, qs) -> np.ndarray:
        """Elementwise distances between two equally long point sets."""
        return np.array([self.distance(p, q) for p, q in zip(ps, qs)])

    def cross_matrix(self, ps, qs) -> np.ndarray:
        """Matrix of distances, rows indexed by `ps`, columns by `qs`."""
        out = np.empty((len(ps), len(qs)))
        for i in range(len(ps)):
            out[i, :] = self.dists_to(qs, ps[i])
        return out

    def pairwise(self, points) -> np.ndarray:
        """Symmetric distance matrix with an exactly zero diagonal.

        Each unordered pair is evaluated once and mirrored, so symmetry
        is exact regardless of the metric's floating-point quirks.
        """
        n = len(points)
        out = np.zeros((n, n))
        for i in range(n - 1):
            out[i, i + 1:] = out[i + 1:, i] = self.dists_to(points[i + 1:], points[i])
        return out


class EuclideanSpace(MetricSpace):
    """R^d with the Euclidean norm."""

    kind = "euclidean"

    def __init__(self, dim: int):
        if dim < 1:
            raise MetricError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    def __repr__(self):
        return f"EuclideanSpace(dim={self.dim})"

    def coerce_point(self, p):
        arr = np.asarray(p, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (self.dim,):
            raise PointValidationError(
                f"expected a real vector of length {self.dim}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PointValidationError(f"non-finite coordinates in {arr!r}")
        return arr

    def coerce_points(self, points):
        arr = np.asarray(points, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise PointValidationError(
                f"expected an (n, {self.dim}) array of points, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PointValidationError("non-finite coordinates in point set")
        return arr

    def distance(self, p, q) -> float:
        # Left-associated sum of squared coordinate differences; dists_to
        # accumulates columns in the same order so both paths agree bitwise.
        s = 0.0
        for a, b in zip(p.tolist(), q.tolist()):
            t = a - b
            s += t * t
        return math.sqrt(s)

    def dists_to(self, points, q) -> np.ndarray:
        diff = points - q
        s = diff[..., 0] * diff[..., 0]
        for j in range(1, diff.shape[-1]):
            s = s + diff[..., j] * diff[..., j]
        return np.sqrt(s)

    paired_distances = dists_to


class SphereSpace(MetricSpace):
    """Unit sphere S^{d-1} in R^d with geodesic (arc-length) distance."""

    kind = "sphere-geodesic"

    def __init__(self, dim: int):
        if dim < 2:
            raise MetricError(f"ambient dimension must be >= 2, got {dim}")
        self.dim = int(dim)

    def __repr__(self):
        return f"SphereSpace(dim={self.dim})"

    def coerce_point(self, p):
        arr = np.asarray(p, dtype=float)
        if arr.shape != (self.dim,):
            raise PointValidationError(
                f"expected a unit vector of length {self.dim}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PointValidationError(f"non-finite coordinates in {arr!r}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > UNIT_TOL:
            raise PointValidationError(
                f"vector norm {norm!r} deviates from 1 by more than {UNIT_TOL}")
        return arr

    def coerce_points(self, points):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise PointValidationError(
                f"expected an (n, {self.dim}) array of unit vectors, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PointValidationError("non-finite coordinates in point set")
        norms = np.linalg.norm(arr, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_TOL)
        if bad.size:
            raise PointValidationError(
                f"point {bad[0]} has norm {norms[bad[0]]!r}, not unit within {UNIT_TOL}")
        return arr

    def dists_to(self, points, q) -> np.ndarray:
        # 2 atan2(|p - q|, |p + q|) keeps full relative accuracy at every
        # angle, where arccos of the inner product loses arcs below ~1e-8;
        # it is symmetric in p and q and exactly 0 for identical points.
        diff, plus = points - q, points + q
        s = diff[..., 0] * diff[..., 0]
        t = plus[..., 0] * plus[..., 0]
        for j in range(1, diff.shape[-1]):
            s = s + diff[..., j] * diff[..., j]
            t = t + plus[..., j] * plus[..., j]
        return 2.0 * np.arctan2(np.sqrt(s), np.sqrt(t))

    paired_distances = dists_to

    def distance(self, p, q) -> float:
        return float(self.dists_to(p[None, :], q)[0])


class StiefelSpace(MetricSpace):
    """Orthonormal k-frames in R^d stored as (d, k) matrices.

    `mode="chordal"` uses the Frobenius norm of the difference;
    `mode="procrustes"` minimizes over right orthogonal alignment, via
    the singular values of the k x k cross product.
    """

    def __init__(self, rows: int, cols: int, mode: str = "chordal"):
        if cols < 1 or rows < cols:
            raise MetricError(f"invalid frame shape ({rows}, {cols})")
        if mode not in ("chordal", "procrustes"):
            raise MetricError(f"unknown Stiefel metric mode {mode!r}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.mode = mode

    @property
    def kind(self):
        return f"stiefel-{self.mode}"

    def __repr__(self):
        return f"StiefelSpace(rows={self.rows}, cols={self.cols}, mode={self.mode!r})"

    def coerce_point(self, p):
        arr = np.asarray(p, dtype=float)
        if arr.shape != (self.rows, self.cols):
            raise PointValidationError(
                f"expected a ({self.rows}, {self.cols}) frame, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PointValidationError(f"non-finite entries in frame {arr!r}")
        gram = arr.T @ arr
        dev = float(np.max(np.abs(gram - np.eye(self.cols))))
        if dev > ORTHONORMAL_TOL:
            raise PointValidationError(
                f"frame columns deviate from orthonormality by {dev!r} "
                f"(> {ORTHONORMAL_TOL})")
        return arr

    def coerce_points(self, points):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 3 or arr.shape[1:] != (self.rows, self.cols):
            raise PointValidationError(
                f"expected an (n, {self.rows}, {self.cols}) array of frames, "
                f"got shape {arr.shape}")
        for i in range(arr.shape[0]):
            try:
                self.coerce_point(arr[i])
            except PointValidationError as exc:
                raise PointValidationError(f"frame {i}: {exc}") from None
        return arr

    def dists_to(self, points, q) -> np.ndarray:
        if self.mode == "chordal":
            diff = (points - q).reshape(points.shape[0], -1)
            s = diff[:, 0] * diff[:, 0]
            for j in range(1, diff.shape[1]):
                s = s + diff[:, j] * diff[:, j]
            return np.sqrt(s)
        out = np.empty(points.shape[0])
        for i in range(points.shape[0]):
            out[i] = self._procrustes(points[i], q)
        return out

    def distance(self, p, q) -> float:
        if self.mode == "chordal":
            s = 0.0
            for a, b in zip(p.ravel().tolist(), q.ravel().tolist()):
                t = a - b
                s += t * t
            return math.sqrt(s)
        return self._procrustes(p, q)

    def _procrustes(self, a, b) -> float:
        if np.array_equal(a, b):
            return 0.0
        # Canonical operand order keeps d(a, b) == d(b, a) bit-exact.
        if a.tobytes() > b.tobytes():
            a, b = b, a
        sv = np.linalg.svd(a.T @ b, compute_uv=False)
        val = 2.0 * self.cols - 2.0 * float(sv.sum())
        return math.sqrt(val) if val > 0.0 else 0.0


class BHVSpace(MetricSpace):
    """Space of phylogenetic trees on a fixed leaf universe.

    Distances are geodesic tree-space distances from `treespace`.
    """

    kind = "bhv-tree"

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise MetricError("duplicate leaf labels in universe")
        if not labels:
            raise MetricError("empty leaf universe")
        self.labels = labels

    def __repr__(self):
        return f"BHVSpace(labels={self.labels!r})"

    def coerce_point(self, p):
        if not isinstance(p, treespace.Tree):
            raise PointValidationError(f"expected a Tree, got {type(p).__name__}")
        if p.labels != self.labels:
            raise PointValidationError(
                f"tree leaf universe {p.labels!r} does not match space {self.labels!r}")
        return p

    def coerce_points(self, points):
        return [self.coerce_point(p) for p in points]

    def distance(self, p, q) -> float:
        if p.sort_key() > q.sort_key():
            p, q = q, p
        return treespace.bhv_distance(p, q).distance

    def dists_to(self, points, q) -> np.ndarray:
        return np.array([self.distance(p, q) for p in points])


def distance(p, q, space: MetricSpace) -> float:
    """Distance between two points after validating both against `space`."""
    try:
        p = space.coerce_point(p)
    except PointValidationError as exc:
        raise SpaceMismatchError(f"first operand: {exc}") from None
    try:
        q = space.coerce_point(q)
    except PointValidationError as exc:
        raise SpaceMismatchError(f"second operand: {exc}") from None
    return space.distance(p, q)


def pairwise_matrix(points, space: MetricSpace) -> np.ndarray:
    """Full symmetric distance matrix of a point set.

    Entry (i, j) equals `space.distance(points[i], points[j])` exactly.
    """
    try:
        pts = space.coerce_points(points)
    except PointValidationError as exc:
        raise PointValidationError(f"invalid point set: {exc}") from None
    return space.pairwise(pts)


def stiefel_distance(a, b, mode: str = "chordal") -> float:
    """Distance between two orthonormal frames of matching shape."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise SpaceMismatchError(
            f"frame shapes differ or are not matrices: {a.shape} vs {b.shape}")
    space = StiefelSpace(a.shape[0], a.shape[1], mode=mode)
    return distance(a, b, space)


def space_from_name(name: str, *, dim: int | None = None,
                    shape: tuple[int, int] | None = None,
                    labels=None) -> MetricSpace:
    """Construct a space from its command-line name."""
    if name == "euclidean":
        if dim is None:
            raise MetricError("euclidean space needs a dimension")
        return EuclideanSpace(dim)
    if name == "sphere":
        if dim is None:
            raise MetricError("sphere space needs an ambient dimension")
        return SphereSpace(dim)
    if name in ("stiefel-chordal", "stiefel-procrustes"):
        if shape is None:
            raise MetricError("stiefel space needs a frame shape, e.g. --shape 3x2")
        mode = name.split("-", 1)[1]
        return StiefelSpace(shape[0], shape[1], mode=mode)
    if name == "bhv":
        if labels is None:
            raise MetricError("tree space needs a leaf universe")
        return BHVSpace(labels)
    raise MetricError(f"unknown metric {name!r}")
