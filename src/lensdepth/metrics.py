"""Metric spaces backing every distance computation in the package.

Concrete spaces: Euclidean R^d, the unit sphere S^{d-1} with geodesic
distance, Stiefel frame spaces (chordal or Procrustes metric), and the
tree space of weighted phylogenetic trees.

A space is its point check plus its distance: it defines `coerce_points`
and either a batch `paired_distances` or a scalar `distance`, and
`MetricSpace` derives the other methods from those.  The batch helpers
(`dists_to`, `paired_distances`, `cross_matrix`, `pairwise`) produce
bit-identical floats to the scalar `distance` call: every sum runs in a
fixed order, never in one numpy picks by array shape.  Batch operations
elsewhere in the package rely on this to match per-point recomputation
exactly, independent of chunking or thread count.  A distance depends
only on the values of its points: 0.0 and -0.0 are one value, so points
equal by value have bit-identical distances to every other point.
Distance matrices are built on one thread.  Distances stay accurate
near zero: the sphere uses an atan2 arc and the Procrustes metric the
norm of principal-vector differences, neither of which cancels.
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


def _reject_first(bad, message) -> None:
    """Raise for the first point flagged in `bad`, with the one-line
    `message(i)` for its index i."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise PointValidationError(message(int(hits[0])))


def _float_array(points, what: str, shapes: tuple) -> np.ndarray:
    """`points` as a float array; a ragged list or a non-number raises
    for the first point whose shape is not one of `shapes`, or that is
    not made of numbers."""
    try:
        return np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        for i, p in enumerate(points):
            try:
                shape = np.shape(np.asarray(p, dtype=float))
            except (TypeError, ValueError):
                raise PointValidationError(f"point {i} is not made of numbers") from None
            if shape not in shapes:
                raise PointValidationError(
                    f"point {i} has shape {shape}, expected {what}") from None
        raise PointValidationError(f"expected {what}") from None


def _float_stack(points, shape: tuple, what: str) -> np.ndarray:
    """`points` as a float array of points of `shape`, rejecting any
    other shape and then the first point with a non-finite entry."""
    arr = _float_array(points, what, (shape,))
    if arr.shape[1:] != shape:
        raise PointValidationError(f"expected {what}, got an array of shape {arr.shape}")
    _reject_first(~_flat_rows(np.isfinite(arr)).all(axis=1),
                  lambda i: f"point {i} has a non-finite entry")
    return arr


def _root_sum_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| over the last axis: the sum of squares accumulated column
    by column from the left, the order of `_scalar_root_sum_sq`, so both
    paths agree bit for bit.  Differences and squares past the double
    range are inf, as in the scalar loop, and numpy is not asked to warn
    of them."""
    with np.errstate(over="ignore"):
        diff = a - b
        s = diff[..., 0] * diff[..., 0]
        for j in range(1, diff.shape[-1]):
            s = s + diff[..., j] * diff[..., j]
    return np.sqrt(s)


def _scalar_root_sum_sq(p: np.ndarray, q: np.ndarray) -> float:
    """|p - q| by a left-to-right Python loop over the flattened entries.
    Kept apart from `_root_sum_sq`: the `empirical_lens_depth` oracle
    checks the batch path against it."""
    s = 0.0
    for a, b in zip(p.ravel().tolist(), q.ravel().tolist()):
        t = a - b
        s += t * t
    return math.sqrt(s)


class MetricSpace:
    """A metric space: point validation plus scalar and batch distances.

    A subclass defines `coerce_points` and at least one of
    `paired_distances` (batch) and `distance` (scalar); each defaults to
    the other, and `coerce_point`, `dists_to`, `cross_matrix` and
    `pairwise` are derived.  `points` containers are numpy arrays whose
    first axis indexes points: float arrays for the vector spaces, 1-d
    object arrays of `Tree` for tree space.
    """

    kind = "abstract"

    def coerce_points(self, points):
        """Validate and return the canonical container for a point set;
        a point that does not belong to the space raises
        `PointValidationError` naming its index."""
        raise NotImplementedError

    def coerce_point(self, p):
        """Validate one point, exactly as a set holding only it."""
        return self.coerce_points([p])[0]

    def distance(self, p, q) -> float:
        """Distance between two points: one row of `paired_distances`."""
        return float(self.paired_distances(p[None], q[None])[0])

    def paired_distances(self, ps, qs) -> np.ndarray:
        """Elementwise distances between two equally long point sets."""
        return np.array([self.distance(p, q) for p, q in zip(ps, qs)], dtype=float)

    def dists_to(self, points, q) -> np.ndarray:
        """Distances from every point of `points` to the single point `q`."""
        return self.paired_distances(points, np.broadcast_to(q, np.shape(points)))

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

    def coerce_points(self, points):
        what = f"real vectors of length {self.dim}"
        arr = _float_array(points, what, ((1,), ()) if self.dim == 1 else ((self.dim,),))
        return _float_stack(arr.reshape(-1, 1) if arr.ndim == 1 else arr, (self.dim,), what)

    def distance(self, p, q) -> float:
        return _scalar_root_sum_sq(p, q)

    # Native broadcasting of q: the base rule's `np.broadcast_to` would
    # more than double the cost of this hot path (so also on the sphere).
    def dists_to(self, points, q) -> np.ndarray:
        return _root_sum_sq(points, q)

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

    def coerce_points(self, points):
        arr = _float_stack(points, (self.dim,), f"unit vectors of length {self.dim}")
        norms = np.linalg.norm(arr, axis=1)
        _reject_first(np.abs(norms - 1.0) > UNIT_TOL, lambda i: (
            f"point {i} has norm {float(norms[i])!r}, not 1 within {UNIT_TOL}"))
        return arr

    def dists_to(self, points, q) -> np.ndarray:
        # 2 atan2(|p - q|, |p + q|) keeps full relative accuracy at every
        # angle, where arccos of the inner product loses arcs below ~1e-8;
        # it is symmetric in p and q and exactly 0 for identical points.
        return 2.0 * np.arctan2(_root_sum_sq(points, q), _root_sum_sq(points, -q))

    paired_distances = dists_to


class StiefelSpace(MetricSpace):
    """Orthonormal k-frames in R^d stored as (d, k) matrices.

    `mode="chordal"` uses the Frobenius norm of the difference;
    `mode="procrustes"` minimizes it over right orthogonal alignment,
    reflections included: |A U - B V|_F with A^T B = U S V^T, one
    stacked SVD per batch of frame pairs (`_procrustes_rows`).
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

    def coerce_points(self, points):
        arr = _float_stack(points, (self.rows, self.cols),
                           f"({self.rows}, {self.cols}) frames")
        dev = np.abs(arr.swapaxes(1, 2) @ arr - np.eye(self.cols)).max(axis=(1, 2))
        _reject_first(dev > ORTHONORMAL_TOL, lambda i: (
            f"point {i} is not orthonormal: its Gram matrix is {float(dev[i])!r} "
            f"from the identity (> {ORTHONORMAL_TOL})"))
        return arr

    def paired_distances(self, ps, qs) -> np.ndarray:
        if self.mode == "chordal":
            return _root_sum_sq(_flat_rows(ps), _flat_rows(qs))
        return _procrustes_rows(ps, qs)

    def distance(self, p, q) -> float:
        if self.mode == "chordal":
            return _scalar_root_sum_sq(p, q)
        return super().distance(p, q)


def _flat_rows(x: np.ndarray) -> np.ndarray:
    """An (n, ...) stack as n flat rows, n = 0 included."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def _bytes_greater(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows i where a[i].tobytes() > b[i].tobytes(), without building
    the byte strings: read as big-endian integers, 8-byte words order
    as their bytes do, and the first word that differs decides."""
    aw = _flat_rows(np.ascontiguousarray(a).view(">u8"))
    bw = _flat_rows(np.ascontiguousarray(b).view(">u8"))
    rows = np.arange(len(a))
    first = (aw != bw).argmax(axis=1)
    return aw[rows, first] > bw[rows, first]


def _procrustes_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Procrustes distances min over Q in O(k) of |a_i Q - b_i|_F between
    the frames of two (n, d, k) stacks, by one stacked SVD.

    With a_i^T b_i = U S V^T the distance is |a_i U - b_i V|_F, the norm
    of the differences of the principal vectors, 2 sqrt(sum sin^2(t/2))
    over the principal angles t.  Unlike sqrt(2k - 2 sum S) it does not
    cancel, so it stays accurate near zero.  Every product is an explicit
    left-to-right sum, and the operand with the smaller bytes goes first,
    so a row's value does not depend on the batch around it and
    d(a, b) == d(b, a) bit for bit; frames equal by value give 0.0.
    Adding 0.0 first turns -0.0 into 0.0 and leaves every other value as
    it is, so neither the byte order nor a product sees a zero's sign.
    """
    a, b = a + 0.0, b + 0.0
    swap = _bytes_greater(a, b)[:, None, None]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    terms = a[..., :, None] * b[..., None, :]           # a[r, i] b[r, j]
    m = terms[:, 0]
    for r in range(1, a.shape[1]):
        m = m + terms[:, r]
    u, _, vt = np.linalg.svd(m)
    au = a[..., :, None] * u[:, None]                    # a[r, i] u[i, j]
    bv = b[..., :, None] * vt.swapaxes(1, 2)[:, None]    # b[r, i] v[i, j]
    sa, sb = au[:, :, 0], bv[:, :, 0]
    for i in range(1, a.shape[2]):
        sa, sb = sa + au[:, :, i], sb + bv[:, :, i]
    out = _root_sum_sq(_flat_rows(sa), _flat_rows(sb))
    out[np.all(a == b, axis=(1, 2))] = 0.0
    return out


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

    def coerce_points(self, points):
        if not np.iterable(points):
            raise PointValidationError(
                f"expected a sequence of trees, got a {type(points).__name__}")
        trees = list(points)
        _reject_first([not isinstance(p, treespace.Tree) for p in trees], lambda i: (
            f"point {i} is a {type(trees[i]).__name__}, not a Tree"))
        _reject_first([p.labels != self.labels for p in trees], lambda i: (
            f"point {i} has leaf universe {trees[i].labels!r}, not {self.labels!r}"))
        out = np.empty(len(trees), dtype=object)    # numpy treats a Tree as a scalar
        out[:] = trees
        return out

    def distance(self, p, q) -> float:
        if p.sort_key() > q.sort_key():
            p, q = q, p
        return treespace.geodesic(p, q)[0]
