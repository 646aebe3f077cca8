import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lensdepth.analysis import loo_depth_against
from lensdepth.depth import Sample, batch_depth, empirical_lens_depth, self_depth_field
from lensdepth.metrics import (
    BHVSpace,
    EuclideanSpace,
    MetricSpace,
    PointValidationError,
    SphereSpace,
    StiefelSpace,
)
from lensdepth.treespace import parse_newick

from conftest import (
    negate_zeros,
    random_frames,
    random_tree,
    random_unit_vectors,
    space_with_points,
    zero_rich_points,
)

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
    return StiefelSpace(3, 2, kind.split("-")[1]), np.concatenate(
        [frames, frames, -frames, flipped, signed_zero_frames()])


def signed_zero_frames():
    """Axis-aligned frames, each followed by a copy whose zeros are -0.0:
    equal by value, different by bytes."""
    axes = np.stack([np.eye(3)[:, [0, 1]], np.eye(3)[:, [2, 0]], -np.eye(3)[:, [1, 2]]])
    negzero = np.where(axes == 0.0, -0.0, axes)
    return np.stack([axes, negzero], axis=1).reshape(-1, 3, 2)


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_dists_to_matches_scalar_on_ties_and_antipodes(kind, rng):
    space, pts = tie_heavy_and_antipodal(kind, rng)
    pts = space.coerce_points(pts)
    for q in pts:
        row = space.dists_to(pts, q)
        assert row.tolist() == [space.distance(p, q) for p in pts]
        assert space.paired_distances(pts, np.broadcast_to(q, pts.shape)).tolist() \
            == row.tolist()


@pytest.mark.parametrize("mode", ["chordal", "procrustes"])
def test_stiefel_signed_zeros_are_one_frame(mode):
    space = StiefelSpace(3, 2, mode)
    frames = signed_zero_frames()
    assert frames[0].tobytes() != frames[1].tobytes()
    for a, b in zip(frames[::2], frames[1::2]):
        assert space.distance(a, b) == space.distance(b, a) == 0.0
    dmat = space.cross_matrix(frames, frames)
    assert np.all(dmat[np.arange(0, 6, 2), np.arange(1, 6, 2)] == 0.0)
    assert np.array_equal(dmat, dmat.T)


def assert_zero_signs_do_not_matter(space, pts):
    """Negating the zero entries of either point leaves every distance
    bit-identical, in the batch and the scalar paths."""
    flipped = space.coerce_points(negate_zeros(pts))
    want = space.cross_matrix(pts, pts).tobytes()
    assert space.cross_matrix(flipped, pts).tobytes() == want
    assert space.cross_matrix(pts, flipped).tobytes() == want
    assert space.pairwise(flipped).tobytes() == space.pairwise(pts).tobytes()
    for p, f in zip(pts, flipped):
        for q in pts:
            assert np.float64(space.distance(f, q)).tobytes() == \
                np.float64(space.distance(p, q)).tobytes()


@pytest.mark.parametrize("kind", VECTOR_KINDS + ("bhv",))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distances_ignore_the_sign_of_zero_entries(kind, seed):
    space, pts = zero_rich_points(kind, np.random.default_rng(seed), 5)
    assert_zero_signs_do_not_matter(space, space.coerce_points(pts))


@pytest.mark.parametrize("mode", ["chordal", "procrustes"])
def test_frames_with_signed_zeros_keep_their_distances(mode):
    # A kernel that sees the sign of x_e's zeros (in ordering its operands
    # by bytes, or in their products) gives 2.48e-16 here, not 1.11e-16.
    space = StiefelSpace(3, 2, mode)
    x_e = [[0.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
    o = [[-0.0, 0.0], [-0.8, -0.6], [0.6, -0.8]]
    assert_zero_signs_do_not_matter(space, space.coerce_points([x_e, o]))


@pytest.mark.parametrize("kind", VECTOR_KINDS)
def test_empty_batches(kind, rng):
    space, pts = space_with_points(kind, rng, 3)
    assert space.dists_to(pts[:0], pts[0]).shape == (0,)
    assert space.paired_distances(pts[:0], pts[:0]).shape == (0,)
    assert space.cross_matrix(pts, pts[:0]).shape == (3, 0)


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


def _procrustes_by_singular_values(a, b):
    """The textbook form sqrt(2k - 2 sum sigma(a^T b)), which cancels near 0."""
    sv = np.linalg.svd(a.T @ b, compute_uv=False)
    return math.sqrt(max(2.0 * a.shape[1] - 2.0 * sv.sum(), 0.0))


@pytest.mark.parametrize("shape", [(3, 2), (2, 1), (4, 4), (6, 3)])
def test_stiefel_procrustes_matches_singular_value_form(shape, rng):
    space = StiefelSpace(*shape, "procrustes")
    frames = space.coerce_points(random_frames(rng, 41, *shape))
    for q in frames[:5]:
        row = space.dists_to(frames, q)
        want = [_procrustes_by_singular_values(p, q) for p in frames]
        far = np.array(want) > 1e-3
        assert np.all(np.abs(row - want)[far] <= 1e-12)


def _principal_angle_frames(t1, t2):
    """Frames [e1, e2] and [cos t1 e1 + sin t1 e3, cos t2 e2 + sin t2 e4]
    of R^4, whose principal angles are exactly t1 and t2."""
    a, b = np.zeros((4, 2)), np.zeros((4, 2))
    a[0, 0] = a[1, 1] = 1.0
    b[0, 0], b[2, 0] = math.cos(t1), math.sin(t1)
    b[1, 1], b[3, 1] = math.cos(t2), math.sin(t2)
    return a, b


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


@pytest.mark.parametrize("theta", np.geomspace(1e-12, math.pi / 2, 25))
def test_stiefel_procrustes_accurate_at_small_angles(theta, rng):
    space = StiefelSpace(4, 2, "procrustes")
    for t1, t2 in ((theta, 0.0), (0.0, theta), (theta, theta), (theta, theta / 7),
                   (math.pi / 2, theta)):
        a, b = _principal_angle_frames(t1, t2)
        want = 2.0 * math.sqrt(math.sin(t1 / 2) ** 2 + math.sin(t2 / 2) ** 2)
        assert space.distance(a, b) == pytest.approx(want, rel=1e-14, abs=0.0)
        ambient, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a, b = (ambient @ a @ _rotation(rng.uniform(0, 2 * math.pi)),
                ambient @ b @ _rotation(rng.uniform(0, 2 * math.pi)))
        assert space.distance(a, b) == pytest.approx(want, rel=0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Properties of every vector space, on random point sets with planted ties


def _flip_first(points):
    """Negate the first entry along the last axis: one coordinate of a
    vector, the first column of a frame."""
    sign = np.ones(points.shape[-1])
    sign[0] = -1.0
    return points * sign


@st.composite
def vector_point_sets(draw, kind):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    if kind == "euclidean":
        dim = draw(st.integers(1, 4))
        space = EuclideanSpace(dim)
        pts = rng.standard_normal((n, dim)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "sphere":
        dim = draw(st.integers(2, 4))
        space, pts = SphereSpace(dim), random_unit_vectors(rng, n, dim)
    else:
        k = draw(st.integers(1, 3))
        d = draw(st.integers(k, 4))
        space, pts = StiefelSpace(d, k, kind.split("-")[1]), random_frames(rng, n, d, k)
    # Plant copies, negations and single-sign flips of other points.
    for dst, src, how in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from(["copy", "negate", "flip"])), max_size=4)):
        pts[dst] = {"copy": pts[src], "negate": -pts[src],
                    "flip": _flip_first(pts[src])}[how]
    return space, space.coerce_points(pts)


def _ulps(scale, k=8):
    return k * np.finfo(float).eps * max(scale, 1.0)


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("kind", VECTOR_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_vector_space_metric_axioms(kind, data):
    space, pts = data.draw(vector_point_sets(kind))
    dmat = space.pairwise(pts)
    tol = _ulps(dmat.max())
    assert np.all(dmat >= 0.0)
    assert np.array_equal(dmat, dmat.T)
    for i, p in enumerate(pts):
        assert space.distance(p, p) == 0.0
        for j, q in enumerate(pts):
            assert space.distance(p, q) == space.distance(q, p)
    assert np.all(dmat[:, None, :] <= dmat[:, :, None] + dmat[None, :, :] + tol)


@pytest.mark.parametrize("kind", VECTOR_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_vector_space_isometry_invariance(kind, data, seed):
    space, pts = data.draw(vector_point_sets(kind))
    rng = np.random.default_rng(seed)
    ambient = _random_orthogonal(rng, pts.shape[1])
    moved = ambient @ pts[..., None] if pts.ndim == 2 else ambient @ pts
    if kind == "stiefel-chordal":
        moved = moved @ _random_orthogonal(rng, pts.shape[2])
    if kind == "stiefel-procrustes":
        # Procrustes aligns each frame on its own, reflections included.
        moved = moved @ np.stack([_random_orthogonal(rng, pts.shape[2]) for _ in pts])
    moved = space.coerce_points(moved.reshape(pts.shape))
    dmat = space.pairwise(pts)
    scale = float(np.abs(pts).max()) * math.sqrt(pts[0].size)
    assert np.all(np.abs(space.pairwise(moved) - dmat) <= _ulps(scale, 64))


@pytest.mark.parametrize("kind", VECTOR_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vector_space_batches_are_bit_identical(kind, data):
    space, pts = data.draw(vector_point_sets(kind))
    others = pts[::-1]
    dmat = space.pairwise(pts)

    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    assert bits(space.cross_matrix(pts, pts)) == bits(dmat)
    scalar = [[space.distance(p, q) for q in pts] for p in pts]
    assert bits(scalar) == bits(dmat)
    for m in range(1, len(pts) + 1):
        for j, q in enumerate(pts):
            assert bits(space.dists_to(pts[:m], q)) == bits(dmat[:m, j])
        assert bits(space.paired_distances(pts[:m], others[:m])) == \
            bits([space.distance(p, q) for p, q in zip(pts[:m], others[:m])])
        assert bits(space.pairwise(pts[:m])) == bits(dmat[:m, :m])
        assert bits(space.cross_matrix(pts[:m], others)) == \
            bits([[space.distance(p, q) for q in others] for p in pts[:m]])


# ---------------------------------------------------------------------------
# The space contract: a point check plus a distance, the rest derived


class DiscreteSpace(MetricSpace):
    """The discrete metric on integer labels, defined by nothing but its
    point check and a scalar distance; every lens question is a tie."""

    kind = "discrete"

    def coerce_points(self, points):
        arr = np.asarray(points)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise PointValidationError(f"expected integer labels, got {arr.dtype} {arr.shape}")
        return arr

    def distance(self, p, q) -> float:
        return 0.0 if p == q else 1.0


def test_scalar_distance_space_derives_the_batch_methods(rng):
    space = DiscreteSpace()
    pts = space.coerce_points(rng.integers(0, 4, 25))
    others = pts[::-1]
    scalar = [[space.distance(p, q) for q in pts] for p in pts]
    assert space.coerce_point(pts[3]) == pts[3]
    with pytest.raises(PointValidationError):
        space.coerce_point(0.5)
    assert space.pairwise(pts).tolist() == scalar
    assert space.cross_matrix(pts[:7], pts).tolist() == scalar[:7]
    for j, q in enumerate(pts):
        assert space.dists_to(pts, q).tolist() == [row[j] for row in scalar]
    assert space.paired_distances(pts, others).tolist() == \
        [space.distance(p, q) for p, q in zip(pts, others)]
    assert space.dists_to(pts[:0], pts[0]).shape == (0,)


@pytest.mark.parametrize("threads", [1, 3])
def test_scalar_distance_space_depths_match_the_double_loop(threads, rng):
    sample = Sample(rng.integers(0, 4, 20), DiscreteSpace())
    queries = np.array([0, 1, 2, 3, 4, 7, 2])
    field = batch_depth(queries, sample, threads=threads)
    assert field.values.tolist() == [empirical_lens_depth(q, sample) for q in queries]
    loo = self_depth_field(sample, threads=threads)
    assert loo.values.tolist() == [empirical_lens_depth(p, sample, exclude=e)
                                   for e, p in enumerate(sample.points)]
    first = {int(p): e for e, p in reversed(list(enumerate(sample.points)))}
    assert loo_depth_against(queries, sample, threads=threads).tolist() == \
        [empirical_lens_depth(q, sample, exclude=first.get(int(q))) for q in queries]


def _contract_cases():
    """(space, valid point, point, point is valid) rows: each space with
    valid points and each way a point can fail to belong to it."""
    frame = np.eye(3)[:, :2]
    nan_frame = frame.copy()
    nan_frame[2, 1] = math.nan
    skew = frame.copy()
    skew[0, 1] = 0.5
    tree = parse_newick("((a:1,b:1):1,c:1);")
    rows = [("euclidean", EuclideanSpace(2), [
        ("valid", np.array([1.0, -2.0]), True),
        ("wrong-shape", np.array([1.0]), False),
        ("wrong-rank", np.array([[1.0, 2.0]]), False),
        ("nan", np.array([math.nan, 0.0]), False),
        ("inf", np.array([0.0, -math.inf]), False)]),
            ("line", EuclideanSpace(1), [
        ("valid-scalar", 2.5, True),
        ("wrong-shape", np.array([1.0, 2.0]), False),
        ("nan", math.nan, False)]),
            ("sphere", SphereSpace(3), [
        ("valid", np.array([0.0, 0.0, 1.0]), True),
        ("valid-within-tol", np.array([1.0 + 5e-10, 0.0, 0.0]), True),
        ("wrong-shape", np.array([0.0, 1.0]), False),
        ("nan", np.array([math.nan, 0.0, 1.0]), False),
        ("non-unit", np.array([1.0, 1.0, 1.0]), False)])]
    for mode in ("chordal", "procrustes"):
        rows.append((f"stiefel-{mode}", StiefelSpace(3, 2, mode), [
            ("valid", frame, True),
            ("wrong-shape", np.eye(3), False),
            ("nan", nan_frame, False),
            ("non-orthonormal", skew, False),
            ("ones", np.ones((3, 2)), False)]))
    rows.append(("bhv", BHVSpace(tree.labels), [
        ("valid", tree, True),
        ("wrong-universe", parse_newick("((a:1,b:1):1,d:1);"), False),
        ("not-a-tree", np.zeros(3), False)]))
    return [pytest.param(space, cases[0][1], point, valid, id=f"{name}-{case}")
            for name, space, cases in rows for case, point, valid in cases]


def _rejection(fn):
    try:
        fn()
    except PointValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("space, good, point, valid", _contract_cases())
def test_coerce_point_raises_exactly_when_coerce_points_does(space, good, point, valid):
    one = _rejection(lambda: space.coerce_point(point))
    many = _rejection(lambda: space.coerce_points([point]))
    assert (one is None) == (many is None) == valid
    if valid:
        return
    assert one == many
    assert "\n" not in one and "np." not in one and "array(" not in one


# A point of the wrong shape makes the list ragged, which numpy refuses
# before any per-point check runs; the rejection must still name it.
@pytest.mark.parametrize("space, good, point, valid", [
    case for case in _contract_cases() if not case.values[3]])
def test_rejection_names_the_first_bad_point(space, good, point, valid):
    message = _rejection(lambda: space.coerce_points([good, good, point, point]))
    assert message is not None and message.startswith("point 2 ")
    assert "\n" not in message and "inhomogeneous" not in message


def test_ragged_list_is_one_validation_error():
    with pytest.raises(PointValidationError) as err:
        EuclideanSpace(2).coerce_points([[1.0, 2.0], [1.0]])
    assert str(err.value) == "point 1 has shape (1,), expected real vectors of length 2"
    with pytest.raises(PointValidationError, match="^point 1 is not made of numbers$"):
        EuclideanSpace(1).coerce_points([1.0, "x"])


def test_tree_sample_rejects_points_that_are_not_a_sequence(rng):
    trees = [random_tree(tuple("ABCDE"), rng) for _ in range(3)]
    sample = Sample(trees, BHVSpace(tuple("ABCDE")))
    for points, name in ((None, "NoneType"), (5, "int"), (trees[0], "Tree")):
        with pytest.raises(PointValidationError,
                           match=f"^expected a sequence of trees, got a {name}$"):
            batch_depth(points, sample)
