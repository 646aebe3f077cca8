import numpy as np
import pytest

from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace, StiefelSpace
from lensdepth.treespace import Tree, canonical_split


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_vectors(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def random_frames(rng, n, d=3, k=2):
    out = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        out.append(q)
    return np.stack(out)


def space_with_points(kind, rng, n, **kw):
    """A (space, points) pair with valid random points, for generic suites."""
    if kind == "euclidean":
        d = kw.get("dim", 3)
        return EuclideanSpace(d), rng.standard_normal((n, d))
    if kind == "sphere":
        d = kw.get("dim", 3)
        return SphereSpace(d), random_unit_vectors(rng, n, d)
    if kind in ("stiefel-chordal", "stiefel-procrustes"):
        mode = kind.split("-")[1]
        return StiefelSpace(3, 2, mode=mode), random_frames(rng, n)
    raise ValueError(kind)


def random_tree(labels, rng: np.random.Generator) -> Tree:
    """Random binary tree via uniform sequential cluster joins, with every
    edge length uniform on [0.1, 1)."""
    labels = tuple(labels)
    L = len(labels)
    clusters = [1 << i for i in range(L)]
    umask = (1 << L) - 1
    masks = []
    while len(clusters) > 3:
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        merged = clusters[i] | clusters[j]
        masks.append(merged)
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    interior = tuple(sorted(
        (canonical_split(m, umask), float(rng.uniform(0.1, 1.0)))
        for m in masks))
    pendant = tuple(float(rng.uniform(0.1, 1.0)) for _ in range(L))
    return Tree(labels, interior, pendant)


def zero_rich_points(kind, rng, n):
    """A (space, points) pair whose points have many zero entries: vectors
    and unit vectors with zero coordinates, frames with zero rows (signed
    axis columns or a random frame of the other rows), trees with zero
    pendant lengths.  `kind` is a metric name of the command line."""
    if kind == "euclidean":
        dim = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, dim))
        pts[rng.random((n, dim)) < 0.5] = 0.0
        return EuclideanSpace(dim), pts
    if kind == "sphere":
        dim = int(rng.integers(2, 5))
        pts = rng.standard_normal((n, dim))
        pts[rng.random((n, dim)) < 0.5] = 0.0
        pts[np.arange(n), rng.integers(0, dim, n)] = rng.choice([-1.0, 1.0], n)
        return SphereSpace(dim), pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if kind in ("stiefel-chordal", "stiefel-procrustes"):
        k = int(rng.integers(1, 3))
        d = int(rng.integers(k + 1, 5))
        pts = np.zeros((n, d, k))
        for frame in pts:
            rows = np.sort(rng.choice(d, int(rng.integers(k, d + 1)), replace=False))
            if rng.random() < 0.5:
                block = np.eye(len(rows))[:, rng.permutation(len(rows))[:k]]
                frame[rows] = block * rng.choice([-1.0, 1.0], k)
            else:
                frame[rows] = np.linalg.qr(rng.standard_normal((len(rows), k)))[0]
        return StiefelSpace(d, k, kind.split("-")[1]), pts
    if kind == "bhv":
        labels = tuple("ABCDEF")
        trees = np.empty(n, dtype=object)
        for i in range(n):
            t = random_tree(labels, rng)
            pendant = np.where(rng.random(len(labels)) < 0.5, 0.0, t.pendant)
            trees[i] = t.with_lengths([length for _, length in t.interior], pendant)
        return BHVSpace(labels), trees
    raise ValueError(kind)


def negate_zeros(points):
    """`points` with every zero entry negated (0.0 <-> -0.0): equal by
    value, different by bytes."""
    if points.dtype != object:
        return np.where(points == 0.0, -points, points)
    out = np.empty(len(points), dtype=object)
    out[:] = [t.with_lengths([length for _, length in t.interior],
                             [-p if p == 0.0 else p for p in t.pendant]) for t in points]
    return out
