"""Leave-one-out depth of explicit queries, read off the pair count: a
query equal by value to a sample point loses the n - 1 pairs that
contain that point, and any other query keeps its plain depth.  Every
value must equal the double loop with that point excluded, bit for bit,
and no distance may be evaluated beyond those of the plain count."""

import numpy as np
import pytest

from lensdepth.analysis import loo_depth_against
from lensdepth.depth import Sample, batch_depth, empirical_lens_depth, self_depth_field
from lensdepth.levelsets import LatticeGrid
from lensdepth.metrics import (
    BHVSpace,
    EuclideanSpace,
    PointValidationError,
    SphereSpace,
    StiefelSpace,
)

from conftest import negate_zeros, random_frames, random_tree, random_unit_vectors, zero_rich_points


def line_integers(rng):
    """Integer ties on the line, 0.0 in the sample, -0.0 among the queries."""
    pts = np.concatenate([rng.integers(-3, 4, 22).astype(float), [0.0, 0.0, 2.0]])
    queries = np.concatenate([[-0.0, 0.0], np.arange(-4.0, 5.0), np.arange(-4.0, 4.0) + 0.5])
    return Sample(pts, EuclideanSpace(1)), queries


def plane_integers(rng):
    """Integer points in R^2 with duplicates; queries are sample copies
    with -0.0 coordinates and other integer points."""
    pts = rng.integers(-2, 3, (16, 2)).astype(float)
    pts[8:11] = pts[0]
    pts[11] = [0.0, 0.0]
    queries = np.concatenate([negate_zeros(pts[[0, 3, 11]]), pts[[5, 9]],
                              rng.integers(-3, 4, (8, 2)).astype(float)])
    return Sample(pts, EuclideanSpace(2)), queries


def lattice(rng):
    """A 2-D lattice whose points include duplicated sample points."""
    pts = rng.integers(-2, 3, (12, 2)).astype(float)
    pts[6:8] = pts[0]
    pts[8] = [-0.0, 0.0]
    return Sample(pts, EuclideanSpace(2)), LatticeGrid(((-2.0, 2.0, 1.0), (-2.5, 2.5, 0.5)))


def sphere_antipodal(rng):
    """Axis points, their duplicates and antipodes, with -0.0 queries."""
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    base = random_unit_vectors(rng, 6, 3)
    pts = np.concatenate([axes, axes[:2], base, -base[:3]])
    queries = np.concatenate([negate_zeros(axes), -base, base[:2],
                              random_unit_vectors(rng, 4, 3)])
    return Sample(pts, SphereSpace(3)), queries


# Frames with many zero entries: x_e and o, whose distance moves if the
# Procrustes kernel sees the sign of x_e's zeros, axis frames, and
# rotations in a coordinate plane.
ZERO_FRAMES = np.array([
    [[0.0, 0.0], [0.0, -1.0], [1.0, 0.0]],
    [[-0.0, 0.0], [-0.8, -0.6], [0.6, -0.8]],
    [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
    [[0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
    [[0.6, 0.0], [0.0, -1.0], [0.8, 0.0]],
    [[0.0, 1.0], [0.8, 0.0], [-0.6, 0.0]],
])


def frames(mode):
    def build(rng):
        """32 frames: the zero-entry frames, random frames with duplicates,
        negated and column-flipped copies; queries are -0.0 variants."""
        base = random_frames(rng, 8)
        pts = np.concatenate([ZERO_FRAMES, base, base[:3], -base[:3],
                              base[3:6] * np.array([1.0, -1.0]), random_frames(rng, 8)])
        queries = np.concatenate([negate_zeros(ZERO_FRAMES), base[[2]], -base[6:],
                                  random_frames(rng, 3)])
        return Sample(pts, StiefelSpace(3, 2, mode)), queries
    return build


def trees(rng):
    """Duplicate trees, zero pendant lengths and their -0.0 variants."""
    labels = tuple("ABCDEF")
    _, zeroed = zero_rich_points("bhv", rng, 6)
    others = [random_tree(labels, rng) for _ in range(4)]
    pts = np.empty(12, dtype=object)
    pts[:] = list(zeroed) + others + [zeroed[0], others[1]]
    queries = np.empty(8, dtype=object)
    queries[:] = list(negate_zeros(zeroed[:3])) + [others[1], others[2]] + \
        [random_tree(labels, rng) for _ in range(3)]
    return Sample(pts, BHVSpace(labels)), queries


HOSTILE = {
    "line-integers": line_integers,
    "plane-integers": plane_integers,
    "lattice-2d": lattice,
    "sphere-antipodal": sphere_antipodal,
    "stiefel-chordal": frames("chordal"),
    "stiefel-procrustes": frames("procrustes"),
    "bhv-duplicates": trees,
}


def case(name):
    return HOSTILE[name](np.random.default_rng(sum(map(ord, name))))


def first_equal(q, points):
    """Index of the first point equal to `q` by value, or None."""
    hits = [e for e, p in enumerate(points) if np.all(p == q)]
    return hits[0] if hits else None


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", list(HOSTILE))
def test_loo_equals_the_double_loop_on_hostile_inputs(name, threads):
    sample, queries = case(name)
    points = queries.points if isinstance(queries, LatticeGrid) else queries
    want = [empirical_lens_depth(q, sample, exclude=first_equal(q, sample.points))
            for q in points]
    assert sum(first_equal(q, sample.points) is not None for q in points) >= 2
    assert loo_depth_against(queries, sample, threads=threads).tolist() == want


@pytest.mark.parametrize("name", ["line-integers", "plane-integers", "sphere-antipodal",
                                  "stiefel-procrustes"])
def test_sample_points_count_on_the_sample_matrix_and_none_is_rejected(name):
    sample, _ = case(name)
    pts = sample.points
    assert batch_depth(pts, sample).values.tolist() == \
        [empirical_lens_depth(p, sample) for p in pts]
    assert loo_depth_against(pts, sample).tolist() == self_depth_field(sample).values.tolist()
    for depth in (batch_depth, loo_depth_against):
        with pytest.raises(PointValidationError):
            depth(None, sample)


def counting(base):
    """`base` with a log of every dists_to, cross_matrix and pairwise call
    and its size."""
    class Counting(base):
        log = []

        def dists_to(self, points, q):
            self.log.append(("dists_to", len(points)))
            return super().dists_to(points, q)

        def cross_matrix(self, ps, qs):
            self.log.append(("cross_matrix", len(ps), len(qs)))
            return super().cross_matrix(ps, qs)

        def pairwise(self, points):
            self.log.append(("pairwise", len(points)))
            return super().pairwise(points)

    return Counting


def space_args(space):
    if isinstance(space, StiefelSpace):
        return space.rows, space.cols, space.mode
    if isinstance(space, BHVSpace):
        return (space.labels,)
    return (space.dim,)


@pytest.mark.parametrize("name", list(HOSTILE))
def test_loo_evaluates_no_distance_beyond_the_plain_count(name):
    sample, queries = case(name)
    space = counting(type(sample.space))(*space_args(sample.space))
    logs = []
    for depth in (batch_depth, loo_depth_against):
        space.log.clear()
        depth(queries, Sample(sample.points, space))
        logs.append(list(space.log))
    assert logs[1] == logs[0]
