import math

import numpy as np
import pytest
from scipy.stats import norm

from lensdepth import depth
from lensdepth.analysis import loo_depth_against
from lensdepth.depth import DepthField, Sample, batch_depth
from lensdepth.levelsets import (
    KnnGrid,
    LatticeGrid,
    LevelSetError,
    boundary_points,
    hausdorff,
    inner_boundary,
    level_set,
    nearest_indices,
)
from lensdepth.dispersion import DispersionError, psi_curve
from lensdepth.metrics import BHVSpace, EuclideanSpace

from conftest import lattice_neighbors, random_tree, space_with_points

E1 = EuclideanSpace(1)
E2 = EuclideanSpace(2)


def field_1d(values, points=None, grid=None):
    values = np.asarray(values, dtype=float)
    if grid is not None:
        points = grid.points
    if points is None:
        points = np.arange(len(values), dtype=float).reshape(-1, 1)
    return DepthField(points=np.asarray(points, dtype=float).reshape(-1, 1),
                      values=values, n=10, space=E1, grid=grid)


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


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_level_set_non_finite_lambda_rejected(lam):
    with pytest.raises(LevelSetError, match="finite"):
        level_set(field_1d([0.5]), lam)


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
    monkeypatch.setattr(depth, "_BLOCK_ENTRIES", block)
    a = rng.integers(-4, 5, size=(23, 2)).astype(float)
    b = rng.standard_normal((9, 2)) * 3
    for x, y in ((a, b), (b, a), (a, a[:1])):
        cross = E2.pairwise(np.concatenate([x, y]))[:len(x), len(x):]
        want = max(cross.min(axis=1).max(), cross.min(axis=0).max())
        assert hausdorff(x, y, E2) == want


# ---------------------------------------------------------------------------
# Grids and boundaries


@pytest.mark.parametrize("axis", [(0.0, math.inf, 1.0), (-math.inf, 1.0, 1.0),
                                  (0.0, 1.0, math.nan), (0.0, 1.0, 0.0), (1.0, 0.0, 0.5)])
def test_lattice_rejects_bad_axes(axis):
    with pytest.raises(LevelSetError, match="bad axis"):
        LatticeGrid(((0.0, 1.0, 0.5), axis))


def test_lattice_points_and_neighbors():
    g = LatticeGrid(((0.0, 2.0, 1.0), (0.0, 1.0, 1.0)))
    assert g.shape == (3, 2)
    assert len(g) == 6
    # corner has two in-grid neighbors and two virtual ones
    nbrs = lattice_neighbors(g, 0)
    assert nbrs.count(None) == 2


def test_boundary_full_grid_is_the_lattice_edge():
    g = LatticeGrid(((0.0, 4.0, 1.0),))
    f = field_1d(np.ones(5), grid=g)
    ls = level_set(f, 0.5)
    assert boundary_points(ls).tolist() == [0, 4]


def test_boundary_singleton_member():
    g = LatticeGrid(((0.0, 4.0, 1.0),))
    f = field_1d([0, 0, 1, 0, 0], grid=g)
    assert boundary_points(level_set(f, 0.5)).tolist() == [2]


def test_boundary_interval_1d_lattice():
    g = LatticeGrid(((0.0, 10.0, 1.0),))
    values = np.zeros(11)
    values[3:8] = 1.0        # members {3..7}
    f = field_1d(values, grid=g)
    assert boundary_points(level_set(f, 0.5)).tolist() == [3, 7]


def test_boundary_subset_of_members_and_shrinks(rng):
    g = LatticeGrid(((0.0, 9.0, 1.0), (0.0, 9.0, 1.0)))
    values = rng.uniform(0, 1, len(g))
    f = DepthField(points=g.points, values=values, n=5, space=E2, grid=g)
    ls = level_set(f, 0.5)
    if not (0 < len(ls) < len(g)):
        pytest.skip("degenerate draw")
    bd = set(boundary_points(ls).tolist())
    assert bd <= set(ls.members.tolist())
    assert len(bd) > 0


def test_boundary_reads_the_fields_lattice(rng):
    g = LatticeGrid(((-2.0, 2.0, 0.5), (-1.0, 1.0, 0.5)))
    sample = Sample(rng.standard_normal((40, 2)), E2)
    ls = level_set(batch_depth(g, sample), 0.2)
    assert 0 < len(ls) < len(g)
    assert np.array_equal(boundary_points(ls), inner_boundary(ls.member_mask, g))
    # the same points counted without their lattice have no boundary
    with pytest.raises(LevelSetError, match="lattice"):
        boundary_points(level_set(batch_depth(g.points, sample), 0.2))


def test_knn_grid_symmetric_neighbors(rng):
    pts = rng.standard_normal((30, 2))
    g = KnnGrid(Sample(pts, E2), k=4)
    for i in range(30):
        for j in g.neighbor_indices(i):
            assert i in g.neighbor_indices(j)


def cross_matrix_adjacency(points, space, k):
    """The kNN graph built from a fresh `cross_matrix` of the points."""
    cross = space.cross_matrix(points, points)
    np.fill_diagonal(cross, np.inf)
    order = np.argsort(cross, axis=1, kind="stable")[:, :k]
    adj = [set(row.tolist()) for row in order]
    for i, row in enumerate(order):
        for j in row.tolist():
            adj[j].add(i)
    return [sorted(s) for s in adj]


@pytest.mark.parametrize("kind", ["euclidean", "sphere", "stiefel-chordal",
                                  "stiefel-procrustes", "bhv"])
def test_knn_grid_reads_sample_matrix_like_cross_matrix(rng, kind):
    if kind == "bhv":
        labels = tuple("ABCDEF")
        space, points = BHVSpace(labels), [random_tree(labels, rng) for _ in range(24)]
        points += [points[0], points[5], points[5]]
    else:
        space, points = space_with_points(kind, rng, 24)
        points = np.concatenate([points, points[[0, 5, 5]]])
    sample = Sample(points, space)
    cached = sample.distance_matrix.copy()
    for k in (1, 3, 8, 40):
        g = KnnGrid(sample, k=k)
        assert [g.neighbor_indices(i) for i in range(len(g))] == \
            cross_matrix_adjacency(sample.points, space, min(k, sample.n - 1))
    assert np.array_equal(sample.distance_matrix, cached)
    assert not np.diagonal(sample.distance_matrix).any()


def test_knn_grid_needs_a_neighbor(rng):
    sample = Sample(rng.standard_normal((6, 2)), E2)
    for k in (0, -3):
        with pytest.raises(LevelSetError, match="k >= 1"):
            KnnGrid(sample, k=k)


def test_tree_points_as_list_or_object_array_agree(rng):
    labels = tuple("ABCDEF")
    space = BHVSpace(labels)
    trees = [random_tree(labels, rng) for _ in range(14)]
    trees += [trees[0], trees[3], trees[3]]            # ties
    arr = space.coerce_points(trees)
    assert arr.dtype == object and arr.shape == (17,)
    assert all(a is t for a, t in zip(arr, trees))
    by_list, by_array = Sample(trees, space), Sample(arr, space)
    assert by_list.points.dtype == object
    for k in (1, 4):
        assert [KnnGrid(by_list, k).neighbor_indices(i) for i in range(17)] == \
            [KnnGrid(by_array, k).neighbor_indices(i) for i in range(17)]
    a, b = trees[:9], trees[9:]
    assert nearest_indices(a, b, space).tolist() == \
        nearest_indices(arr[:9], arr[9:], space).tolist()
    assert hausdorff(a, b, space) == hausdorff(arr[:9], arr[9:], space) > 0.0
    assert inradius(a, b, space) == inradius(arr[:9], arr[9:], space) > 0.0
    assert diameter(space.coerce_points(a), space) == diameter(arr[:9], space) > 0.0
    assert np.array_equal(loo_depth_against(a, by_list), loo_depth_against(arr[:9], by_array))


@pytest.mark.parametrize("block", [1, 300, 700, 1 << 20])
def test_nearest_index_blocks_match_full_argmin(rng, monkeypatch, block):
    monkeypatch.setattr(depth, "_BLOCK_ENTRIES", block)
    lattice = LatticeGrid(((-2.0, 2.0, 0.5), (-2.0, 2.0, 0.5)))
    # Duplicate targets and quarter-step references make ties everywhere;
    # they go to the lowest index.
    targets = np.concatenate([lattice.points, lattice.points[::7]])
    reference = rng.integers(-10, 11, size=(60, 2)) / 4.0
    nearest = E2.cross_matrix(reference, targets).argmin(axis=1)
    assert nearest_indices(reference, targets, E2).tolist() == nearest.tolist()
    field = DepthField(points=targets, values=rng.uniform(0, 1, len(targets)), n=10, space=E2)
    values = field.values[nearest]
    lambdas = np.linspace(0.0, 1.0, 11)
    curve = psi_curve(field, "volume", lambdas, reference=Sample(reference, E2),
                      reference_mass=2.0)
    assert curve.values.tolist() == [
        2.0 * float(np.mean(values >= lam)) if (field.values >= lam).any()
        else 0.0 for lam in lambdas]


# ---------------------------------------------------------------------------
# Set summaries: psi curves of a single level set, and the volume curve


def summary(kind, points, member_mask, space):
    """`kind` of the level set of the points in `member_mask`, off any lattice."""
    field = DepthField(points=points, values=member_mask.astype(float), n=10, space=space)
    return psi_curve(field, kind, [1.0, 2.0]).values[0]


def diameter(points, space):
    return summary("diam", points, np.ones(len(points), dtype=bool), space)


def inradius(members, complement, space):
    points = np.concatenate([complement, members])
    return summary("inradius", points, np.arange(len(points)) >= len(complement), space)


def binomial_stderr(value, reference_mass, n):
    frac = value / reference_mass
    return reference_mass * math.sqrt(frac * (1.0 - frac) / n)


def test_diameter_trivials(rng):
    assert diameter(np.array([[5.0]]), E1) == 0.0
    assert diameter(np.array([[0.0], [1.0], [5.0]]), E1) == 5.0
    # An empty set has diameter 0, the value psi curves give empty level sets.
    assert diameter(np.empty((0, 1)), E1) == 0.0


def test_diameter_matches_matrix_oracle(rng):
    pts = rng.standard_normal((25, 3))
    dmat = Sample(pts, EuclideanSpace(3)).distance_matrix
    assert diameter(pts, EuclideanSpace(3)) == dmat.max()


def test_inradius_1d_lattice_example():
    members = np.array([[4.0], [5.0], [6.0]])
    complement = np.array([[c] for c in (0, 1, 2, 3, 7, 8, 9, 10)], dtype=float)
    assert inradius(members, complement, E1) == 2.0


def test_inradius_adjacent_everywhere():
    members = np.array([[3.0]])
    complement = np.array([[2.0], [4.0]])
    assert inradius(members, complement, E1) == 1.0


def test_inradius_conventions():
    assert inradius(np.empty((0, 1)), np.array([[1.0]]), E1) == 0.0
    with pytest.raises(LevelSetError):
        inradius(np.array([[1.0]]), np.empty((0, 1)), E1)


def test_inradius_matches_double_loop_oracle(rng):
    g = LatticeGrid(((0.0, 9.0, 1.0), (0.0, 9.0, 1.0)))
    center = np.array([4.5, 4.5])
    member_mask = np.linalg.norm(g.points - center, axis=1) <= 3.0
    members = g.points[member_mask]
    complement = g.points[~member_mask]
    got = inradius(members, complement, E2)
    brute = max(min(float(np.linalg.norm(m - c)) for c in complement)
                for m in members)
    assert got == pytest.approx(brute, abs=1e-12)


def test_volume_trivial_bounds(rng):
    pts = np.linspace(0, 1, 11)
    f = field_1d(np.ones(11), points=pts)
    ref = Sample(rng.uniform(0, 1, 200), E1)
    full, empty = psi_curve(f, "volume", [0.5, 2.0], reference=ref,
                            reference_mass=2.5).values
    assert full == 2.5 and binomial_stderr(full, 2.5, ref.n) == 0.0
    assert empty == 0.0


@pytest.mark.parametrize("mass", [np.nan, np.inf, 0.0, -2.5])
def test_volume_rejects_bad_reference_mass(rng, mass):
    f = field_1d(np.ones(11), points=np.linspace(0, 1, 11))
    ref = Sample(rng.uniform(0, 1, 20), E1)
    with pytest.raises(DispersionError, match="reference mass"):
        psi_curve(f, "volume", [0.5, 1.0], reference=ref, reference_mass=mass)


def test_volume_normal_interval(rng):
    # {depth >= 0.375} for a standard normal is the central quartile box,
    # length 2 * 0.674489... ~= 1.349
    sample = Sample(rng.standard_normal(1500), E1)
    grid = np.linspace(-5, 5, 501).reshape(-1, 1)
    f = batch_depth(grid, sample, threads=2)
    ref = Sample(rng.uniform(-5, 5, 40_000), E1)
    got = psi_curve(f, "volume", [0.375, 1.0], reference=ref, reference_mass=10.0).values[0]
    expected = 2 * (norm.ppf(0.75) - 0.0)
    assert got == pytest.approx(expected, abs=5 * binomial_stderr(got, 10.0, ref.n) + 0.08)


def test_volume_nested_annulus(rng):
    # members of a: |x| <= 2; members of b: |x| <= 1 on a grid.  b lies in
    # a, so their symmetric difference has the volume of a less that of b.
    pts = np.linspace(-3, 3, 61).reshape(-1, 1)
    fa, fb = (DepthField(points=pts, values=(np.abs(pts[:, 0]) <= r).astype(float),
                         n=9, space=E1) for r in (2, 1))
    ref_pts = rng.uniform(-3, 3, 4000)
    ref = Sample(ref_pts, E1)
    va, vb = (psi_curve(f, "volume", [0.5, 1.0], reference=ref).values[0] for f in (fa, fb))
    got = va - vb
    # direct count oracle on the annulus 1 < |x| <= 2 (grid snapping at cells)
    direct = np.mean((np.abs(ref_pts) > 1.05) & (np.abs(ref_pts) <= 2.05))
    assert got == pytest.approx(direct, abs=0.02)
