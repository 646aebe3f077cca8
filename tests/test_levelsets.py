import math

import numpy as np
import pytest
from scipy.stats import norm

from lensdepth import levelsets
from lensdepth.depth import DepthField, Sample, batch_depth
from lensdepth.levelsets import (
    KnnGrid,
    LatticeGrid,
    LevelSetError,
    boundary_points,
    hausdorff,
    level_set,
    measure_distance,
    psi_diameter,
    psi_inradius,
    psi_volume,
)
from lensdepth.metrics import EuclideanSpace, pairwise_matrix

E1 = EuclideanSpace(1)
E2 = EuclideanSpace(2)


def field_1d(values, points=None):
    values = np.asarray(values, dtype=float)
    if points is None:
        points = np.arange(len(values), dtype=float).reshape(-1, 1)
    return DepthField(points=np.asarray(points, dtype=float).reshape(-1, 1),
                      values=values, n=10, space=E1)


# ---------------------------------------------------------------------------
# Level sets


def test_level_set_zero_keeps_everything():
    f = field_1d([0.1, 0.0, 0.9])
    assert level_set(f, 0.0).members.tolist() == [0, 1, 2]


def test_level_set_above_one_empty():
    f = field_1d([0.1, 0.5, 1.0])
    assert len(level_set(f, 1.0001)) == 0


def test_level_set_threshold_includes_ties():
    f = field_1d([0.1, 0.4, 0.4, 0.6])
    assert level_set(f, 0.4).members.tolist() == [1, 2, 3]


def test_level_set_nesting(rng):
    f = field_1d(rng.uniform(0, 1, 50))
    prev = set(level_set(f, 0.0).members.tolist())
    for lam in (0.2, 0.4, 0.6, 0.8, 1.0):
        cur = set(level_set(f, lam).members.tolist())
        assert cur <= prev
        prev = cur


def test_level_set_negative_lambda_rejected():
    with pytest.raises(LevelSetError):
        level_set(field_1d([0.5]), -0.1)


# ---------------------------------------------------------------------------
# Hausdorff


def test_hausdorff_identical_sets(rng):
    pts = rng.standard_normal((12, 2))
    assert hausdorff(pts, pts, E2) == 0.0


def test_hausdorff_singletons():
    assert hausdorff(np.array([[0.0]]), np.array([[3.0]]), E1) == 3.0


def test_hausdorff_farthest_mismatch():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [2.0]])
    assert hausdorff(a, b, E1) == 1.0


def test_hausdorff_empty_rejected():
    with pytest.raises(LevelSetError):
        hausdorff(np.empty((0, 1)), np.array([[0.0]]), E1)


def test_hausdorff_is_a_metric(rng):
    sets = [rng.standard_normal((rng.integers(1, 8), 2)) for _ in range(30)]
    for k in range(10):
        a, b, c = sets[3 * k], sets[3 * k + 1], sets[3 * k + 2]
        dab = hausdorff(a, b, E2)
        assert dab >= 0.0
        assert dab == hausdorff(b, a, E2)
        assert hausdorff(a, c, E2) <= dab + hausdorff(b, c, E2) + 1e-9


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 20])
def test_hausdorff_blocks_match_full_matrix(rng, monkeypatch, block):
    monkeypatch.setattr(levelsets, "_BLOCK_ENTRIES", block)
    a = rng.integers(-4, 5, size=(23, 2)).astype(float)
    b = rng.standard_normal((9, 2)) * 3
    for x, y in ((a, b), (b, a), (a, a[:1])):
        cross = pairwise_matrix(np.concatenate([x, y]), E2)[:len(x), len(x):]
        want = max(cross.min(axis=1).max(), cross.min(axis=0).max())
        assert hausdorff(x, y, E2) == want


# ---------------------------------------------------------------------------
# Measure distance


def _two_fields(values_a, values_b, points):
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    fa = DepthField(points=pts, values=np.asarray(values_a, float), n=9, space=E1)
    fb = DepthField(points=pts, values=np.asarray(values_b, float), n=9, space=E1)
    return fa, fb


def test_measure_distance_identical_zero(rng):
    fa, fb = _two_fields([0.1, 0.5, 0.9], [0.1, 0.5, 0.9], [0, 1, 2])
    ref = Sample(rng.uniform(-0.5, 2.5, 100), E1)
    assert measure_distance(level_set(fa, 0.4), level_set(fb, 0.4), ref) == 0.0


def test_measure_distance_complementary_sets():
    fa, fb = _two_fields([1.0, 0.0], [0.0, 1.0], [0, 10])
    ref = Sample(np.array([0.1, 0.2, 9.8, 9.9]), E1)
    assert measure_distance(level_set(fa, 0.5), level_set(fb, 0.5), ref) == 1.0


def test_measure_distance_nested_annulus(rng):
    # members of a: |x| <= 2; members of b: |x| <= 1 on a grid
    pts = np.linspace(-3, 3, 61)
    va = (np.abs(pts) <= 2).astype(float)
    vb = (np.abs(pts) <= 1).astype(float)
    fa, fb = _two_fields(va, vb, pts)
    ref_pts = rng.uniform(-3, 3, 4000)
    got = measure_distance(level_set(fa, 0.5), level_set(fb, 0.5),
                           Sample(ref_pts, E1))
    # direct count oracle on the annulus 1 < |x| <= 2 (grid snapping at cells)
    direct = np.mean((np.abs(ref_pts) > 1.05) & (np.abs(ref_pts) <= 2.05))
    assert got == pytest.approx(direct, abs=0.02)


def test_measure_distance_symmetry(rng):
    pts = np.linspace(0, 1, 21)
    fa, fb = _two_fields(rng.uniform(0, 1, 21), rng.uniform(0, 1, 21), pts)
    ref = Sample(rng.uniform(0, 1, 500), E1)
    a, b = level_set(fa, 0.5), level_set(fb, 0.5)
    assert measure_distance(a, b, ref) == measure_distance(b, a, ref)


# ---------------------------------------------------------------------------
# Grids and boundaries


def test_lattice_points_and_neighbors():
    g = LatticeGrid(((0.0, 2.0, 1.0), (0.0, 1.0, 1.0)))
    assert g.shape == (3, 2)
    assert len(g) == 6
    # corner has two in-grid neighbors and two virtual ones
    nbrs = g.neighbor_indices(0)
    assert nbrs.count(None) == 2


def test_boundary_full_grid_bounded_vs_torus():
    g = LatticeGrid(((0.0, 4.0, 1.0),))
    f = field_1d(np.ones(5), points=g.points)
    ls = level_set(f, 0.5)
    assert boundary_points(ls, g).tolist() == [0, 4]
    gt = LatticeGrid(((0.0, 4.0, 1.0),), wrap=True)
    assert boundary_points(ls, gt).tolist() == []


def test_boundary_singleton_member():
    g = LatticeGrid(((0.0, 4.0, 1.0),))
    f = field_1d([0, 0, 1, 0, 0], points=g.points)
    assert boundary_points(level_set(f, 0.5), g).tolist() == [2]


def test_boundary_interval_1d_lattice():
    g = LatticeGrid(((0.0, 10.0, 1.0),))
    values = np.zeros(11)
    values[3:8] = 1.0        # members {3..7}
    f = field_1d(values, points=g.points)
    assert boundary_points(level_set(f, 0.5), g).tolist() == [3, 7]


def test_boundary_subset_of_members_and_shrinks(rng):
    g = LatticeGrid(((0.0, 9.0, 1.0), (0.0, 9.0, 1.0)))
    values = rng.uniform(0, 1, len(g))
    f = DepthField(points=g.points, values=values, n=5, space=E2)
    ls = level_set(f, 0.5)
    if not (0 < len(ls) < len(g)):
        pytest.skip("degenerate draw")
    bd = set(boundary_points(ls, g).tolist())
    assert bd <= set(ls.members.tolist())
    assert len(bd) > 0


def test_knn_grid_symmetric_neighbors(rng):
    pts = rng.standard_normal((30, 2))
    g = KnnGrid(pts, E2, k=4)
    for i in range(30):
        for j in g.neighbor_indices(i):
            assert i in g.neighbor_indices(j)


# ---------------------------------------------------------------------------
# Set summaries


def test_diameter_trivials(rng):
    assert psi_diameter(np.array([[5.0]]), E1) == 0.0
    assert psi_diameter(np.array([[0.0], [1.0], [5.0]]), E1) == 5.0
    with pytest.raises(LevelSetError):
        psi_diameter(np.empty((0, 1)), E1)


def test_diameter_matches_matrix_oracle(rng):
    pts = rng.standard_normal((25, 3))
    dmat = pairwise_matrix(pts, EuclideanSpace(3))
    assert psi_diameter(pts, EuclideanSpace(3)) == dmat.max()


def test_inradius_1d_lattice_example():
    members = np.array([[4.0], [5.0], [6.0]])
    complement = np.array([[c] for c in (0, 1, 2, 3, 7, 8, 9, 10)], dtype=float)
    assert psi_inradius(members, complement, E1) == 2.0


def test_inradius_adjacent_everywhere():
    members = np.array([[3.0]])
    complement = np.array([[2.0], [4.0]])
    assert psi_inradius(members, complement, E1) == 1.0


def test_inradius_conventions():
    assert psi_inradius(np.empty((0, 1)), np.array([[1.0]]), E1) == 0.0
    with pytest.raises(LevelSetError):
        psi_inradius(np.array([[1.0]]), np.empty((0, 1)), E1)


def test_inradius_matches_double_loop_oracle(rng):
    g = LatticeGrid(((0.0, 9.0, 1.0), (0.0, 9.0, 1.0)))
    center = np.array([4.5, 4.5])
    member_mask = np.linalg.norm(g.points - center, axis=1) <= 3.0
    members = g.points[member_mask]
    complement = g.points[~member_mask]
    got = psi_inradius(members, complement, E2)
    brute = max(min(float(np.linalg.norm(m - c)) for c in complement)
                for m in members)
    assert got == pytest.approx(brute, abs=1e-12)


def test_volume_trivial_bounds(rng):
    pts = np.linspace(0, 1, 11)
    f = field_1d(np.ones(11), points=pts)
    ref = Sample(rng.uniform(0, 1, 200), E1)
    full = psi_volume(level_set(f, 0.5), ref, reference_mass=2.5)
    assert full.value == 2.5 and full.stderr == 0.0
    empty = psi_volume(level_set(f, 2.0), ref, reference_mass=2.5)
    assert empty.value == 0.0


def test_volume_normal_interval(rng):
    # {depth >= 0.375} for a standard normal is the central quartile box,
    # length 2 * 0.674489... ~= 1.349
    sample = Sample(rng.standard_normal(1500), E1)
    grid = np.linspace(-5, 5, 501).reshape(-1, 1)
    f = batch_depth(grid, sample, threads=2)
    ls = level_set(f, 0.375)
    ref = Sample(rng.uniform(-5, 5, 40_000), E1)
    got = psi_volume(ls, ref, reference_mass=10.0)
    expected = 2 * (norm.ppf(0.75) - 0.0)
    assert got.value == pytest.approx(expected, abs=5 * got.stderr + 0.08)


def test_measure_distance_triangle_inequality(rng):
    pts = np.linspace(0, 1, 31)
    fields = [DepthField(points=pts.reshape(-1, 1),
                         values=rng.uniform(0, 1, 31), n=9, space=E1)
              for _ in range(3)]
    ref = Sample(rng.uniform(0, 1, 2000), E1)
    a, b, c = (level_set(f, 0.5) for f in fields)
    dab = measure_distance(a, b, ref)
    dbc = measure_distance(b, c, ref)
    dac = measure_distance(a, c, ref)
    # symmetric-difference measure: triangle inequality holds exactly on
    # a shared reference sample
    assert dac <= dab + dbc + 1e-12
