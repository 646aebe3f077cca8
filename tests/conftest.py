import numpy as np
import pytest

from lensdepth.metrics import EuclideanSpace, SphereSpace, StiefelSpace
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
