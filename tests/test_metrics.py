import math

import numpy as np
import pytest

from lensdepth.metrics import (
    BHVSpace,
    EuclideanSpace,
    PointValidationError,
    SphereSpace,
    StiefelSpace,
)
from lensdepth.treespace import random_tree

from conftest import random_frames, random_unit_vectors, space_with_points

VECTOR_KINDS = ("euclidean", "sphere", "stiefel-chordal", "stiefel-procrustes")


def test_euclidean_pythagoras():
    space = EuclideanSpace(2)
    assert space.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_sphere_orthogonal_quarter_turn():
    space = SphereSpace(3)
    d = space.distance(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    assert d == pytest.approx(math.pi / 2, abs=1e-12)


def _arc_pair(theta, axes):
    """Two unit vectors at arc `theta`, in the plane of two coordinate axes."""
    p, q = np.zeros(4), np.zeros(4)
    p[axes[0]] = 1.0
    q[axes[0]], q[axes[1]] = math.cos(theta), math.sin(theta)
    return p, q


@pytest.mark.parametrize("theta", np.concatenate(
    [np.geomspace(1e-12, 1.0, 25), math.pi - np.geomspace(1e-9, 1.0, 19)]))
def test_sphere_arc_accurate_at_constructed_angles(theta):
    space = SphereSpace(4)
    for axes in ((0, 1), (3, 1), (2, 0)):
        p, q = _arc_pair(theta, axes)
        assert space.distance(p, q) == pytest.approx(theta, rel=1e-15, abs=0.0)
        assert space.distance(-p, -q) == space.distance(p, q)


def test_sphere_arc_symmetric_and_zero_on_identical(rng):
    space = SphereSpace(3)
    pts = random_unit_vectors(rng, 60, 3)
    pts[10:20] = pts[:10]
    dmat = space.cross_matrix(pts, pts)
    assert np.array_equal(dmat, dmat.T)
    assert np.all(np.diag(dmat) == 0.0)
    assert np.all(dmat[np.arange(10), np.arange(10, 20)] == 0.0)
    assert np.array_equal(dmat, space.pairwise(space.coerce_points(pts)))
    for i in range(0, 60, 7):
        assert space.dists_to(pts, pts[i]).tolist() == \
            [space.distance(p, pts[i]) for p in pts]


def test_sphere_range_and_clamping(rng):
    space = SphereSpace(4)
    pts = random_unit_vectors(rng, 100, 4)
    for i in range(0, 100, 2):
        d = space.distance(pts[i], pts[i + 1])
        assert 0.0 <= d <= math.pi
    assert space.distance(pts[0], -pts[0]) == pytest.approx(math.pi)


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_self_distance_zero(kind, rng):
    space, pts = space_with_points(kind, rng, 20)
    for p in pts:
        assert space.distance(p, p) == 0.0


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_metric_axioms(kind, rng):
    space, pts = space_with_points(kind, rng, 3 * 200)
    for k in range(200):
        p, q, r = pts[3 * k], pts[3 * k + 1], pts[3 * k + 2]
        dpq = space.distance(p, q)
        dqp = space.distance(q, p)
        dpr = space.distance(p, r)
        dqr = space.distance(q, r)
        assert dpq >= 0.0
        assert dpq == dqp          # symmetry is exact, not approximate
        assert dpr <= dpq + dqr + 1e-9


def test_bhv_metric_axioms(rng):
    space = BHVSpace(tuple("ABCDE"))
    trees = [random_tree("ABCDE", rng) for _ in range(3 * 60)]
    for k in range(60):
        p, q, r = trees[3 * k], trees[3 * k + 1], trees[3 * k + 2]
        dpq = space.distance(p, q)
        assert dpq >= 0.0
        assert dpq == space.distance(q, p)
        assert space.distance(p, p) == 0.0
        assert space.distance(p, r) <= dpq + space.distance(q, r) + 1e-9


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_scalar_matches_vectorized_bitwise(kind, rng):
    space, pts = space_with_points(kind, rng, 64)
    q = pts[0]
    row = space.dists_to(pts, q)
    for i in range(len(pts)):
        assert row[i] == space.distance(pts[i], q)


def test_euclidean_scalar_vector_identity_all_dims(rng):
    for d in (1, 2, 3, 5, 8, 13):
        space = EuclideanSpace(d)
        pts = rng.standard_normal((50, d))
        q = rng.standard_normal(d)
        row = space.dists_to(pts, q)
        for i in range(50):
            assert row[i] == space.distance(pts[i], q)


def tie_heavy_and_antipodal(kind, rng):
    """Points with many exact ties, and pairs that are nearly opposite."""
    if kind == "euclidean":
        pts = rng.integers(-2, 3, (40, 4)).astype(float)
        return EuclideanSpace(4), np.concatenate([pts, -pts, -pts + 1e-12])
    if kind == "sphere":
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        base = random_unit_vectors(rng, 10, 3)
        near = -base + 1e-9 * rng.standard_normal((10, 3))
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        return SphereSpace(3), np.concatenate([axes, axes, base, -base, near])
    frames = random_frames(rng, 10)
    flipped = frames * np.array([1.0, -1.0])             # one column negated
    return StiefelSpace(3, 2), np.concatenate([frames, frames, -frames, flipped])


@pytest.mark.parametrize("kind", ["euclidean", "sphere", "stiefel-chordal"])
def test_dists_to_matches_scalar_on_ties_and_antipodes(kind, rng):
    space, pts = tie_heavy_and_antipodal(kind, rng)
    pts = space.coerce_points(pts)
    for q in pts:
        row = space.dists_to(pts, q)
        assert row.tolist() == [space.distance(p, q) for p in pts]


def test_pairwise_matrix_small_example():
    space = EuclideanSpace(1)
    got = space.pairwise(space.coerce_points([[0.0], [1.0], [2.0]]))
    assert np.array_equal(got, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_pairwise_matrix_single_point():
    space = EuclideanSpace(1)
    got = space.pairwise(space.coerce_points([[7.0]]))
    assert got.shape == (1, 1) and got[0, 0] == 0.0


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_pairwise_matrix_matches_recomputation_and_threads(kind, rng):
    space, pts = space_with_points(kind, rng, 18)
    dmat = space.pairwise(space.coerce_points(pts))
    assert np.array_equal(dmat, dmat.T)
    assert np.all(np.diag(dmat) == 0.0)
    for i in range(len(pts)):
        for j in range(len(pts)):
            assert dmat[i, j] == space.distance(pts[i], pts[j])


def test_pairwise_triangle_inequality_exhaustive(rng):
    space = EuclideanSpace(3)
    pts = rng.standard_normal((20, 3))
    dmat = space.pairwise(space.coerce_points(pts))
    n = len(pts)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert dmat[i, k] <= dmat[i, j] + dmat[j, k] + 1e-9


def test_stiefel_chordal_column_swap():
    e = np.eye(3)
    a = e[:, :2]
    b = np.stack([e[:, 0], e[:, 2]], axis=1)
    chordal = StiefelSpace(3, 2, mode="chordal")
    assert chordal.distance(a, b) == pytest.approx(math.sqrt(2))
    assert chordal.distance(a, a) == 0.0


def test_stiefel_procrustes_never_exceeds_chordal(rng):
    frames = random_frames(rng, 40)
    procrustes, chordal = StiefelSpace(3, 2, "procrustes"), StiefelSpace(3, 2, "chordal")
    for i in range(0, 40, 2):
        a, b = frames[i], frames[i + 1]
        assert procrustes.distance(a, b) <= chordal.distance(a, b) + 1e-12


def test_stiefel_rejects_non_orthonormal():
    space = StiefelSpace(3, 2)
    with pytest.raises(PointValidationError):
        space.coerce_point(np.ones((3, 2)))
    for value in (math.nan, math.inf):
        frame = np.eye(3)[:, :2].copy()
        frame[0, 0] = value
        with pytest.raises(PointValidationError):
            space.coerce_point(frame)
        with pytest.raises(PointValidationError):
            space.coerce_points(np.stack([np.eye(3)[:, :2], frame]))


def test_euclidean_rejects_wrong_length():
    space = EuclideanSpace(2)
    with pytest.raises(PointValidationError, match="length 2"):
        space.coerce_point(np.array([1.0]))
    with pytest.raises(PointValidationError):
        space.coerce_points(np.zeros((3, 3)))


def test_sphere_rejects_non_unit():
    space = SphereSpace(3)
    with pytest.raises(PointValidationError):
        space.coerce_point(np.array([1.0, 1.0, 1.0]))
    # within 1e-9 of unit is accepted
    space.coerce_point(np.array([1.0 + 5e-10, 0.0, 0.0]))
    for value in (math.nan, math.inf):
        with pytest.raises(PointValidationError):
            space.coerce_point(np.array([value, 0.0, 1.0]))
        with pytest.raises(PointValidationError):
            space.coerce_points(np.array([[value, 0.0, 1.0], [0.0, 0.0, 1.0]]))
