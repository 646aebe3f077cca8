"""The exact ψ curves on Euclidean lattices: the depth-order walks measure
only a level set's inner boundary for the diameter and its outer boundary
for the inradius.  Every curve must equal the one-pass sweeps
`nested_diameters` and `nested_inradii` of `conftest` bit for bit, on
every lattice of the hostile corpus, at the default level grid and at
every distinct depth value."""

import contextlib

import numpy as np
import pytest

from lensdepth.depth import Sample, batch_depth, self_depth_field
from lensdepth.dispersion import default_lambda_grid, psi_curve
from lensdepth.levelsets import LatticeGrid, inner_boundary
from lensdepth.metrics import EuclideanSpace

from conftest import CASES, halton_normal, lattice_neighbors, nested_diameters, nested_inradii


def quiet(name):
    """Silence overflow where squares overflow to inf, in the sweeps as in
    the lattice curves; every other case must not warn."""
    return np.errstate(over="ignore") if name == "squares-overflow" else contextlib.nullcontext()


def lattice_field(name):
    pts, axes, _ = CASES[name]
    sample = Sample(pts, EuclideanSpace(pts.shape[1]))
    grid = LatticeGrid(tuple(axes))
    with quiet(name):
        return batch_depth(grid, sample), grid


def level_grids(field):
    """The default level grid and the distinct depth values; a field of
    zeros has neither, so it gets an explicit grid."""
    if field.max_value == 0:
        return [np.array([0.0, 0.25, 0.5])]
    return [default_lambda_grid(field, count=40), np.unique(field.values)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_lattice_curves_equal_the_sweeps(name):
    field, grid = lattice_field(name)
    assert field.points is grid.points
    depths = field.values
    grids = level_grids(field)
    # One sweep serves every level grid: it runs over their sorted union.
    union = np.unique(np.concatenate(grids))
    counts = len(depths) - np.searchsorted(np.sort(depths), union, side="left")
    with quiet(name):
        want_diam = nested_diameters(field.points, field.space, counts, np.argsort(-depths))
        want_inradius = nested_inradii(field.points, field.space, counts,
                                       np.argsort(depths), grid)
    for lambdas in grids:
        at = np.searchsorted(union, lambdas)
        with quiet(name):
            diam = psi_curve(field, "diam", lambdas, grid=grid).values
            inradius = psi_curve(field, "inradius", lambdas, grid=grid).values
        assert diam.tobytes() == want_diam[at].tobytes()
        assert inradius.tobytes() == want_inradius[at].tobytes()


@pytest.mark.parametrize("axes", [((0.0, 4.0, 1.0),), ((0.0, 3.0, 1.0), (0.0, 2.0, 1.0)),
                                  ((0.0, 2.0, 1.0), (0.0, 0.0, 1.0), (0.0, 3.0, 1.0))])
def test_lattice_boundaries_match_the_neighbor_lists(axes, rng):
    grid = LatticeGrid(axes)
    nbrs = [lattice_neighbors(grid, i) for i in range(len(grid))]

    def extremes(values):
        """Lowest and highest neighbor value, -1 outside the lattice."""
        around = [[-1 if j is None else values[j] for j in nbrs[i]] for i in range(len(grid))]
        return [min(v) for v in around], [max(v) for v in around]

    for _ in range(20):
        mask = rng.random(len(grid)) < 0.5
        # Members read 1 and non-members 0: a member with a neighbor below 1
        # is on the inner boundary, a non-member with one at 1 on the outer.
        low, high = grid.neighbor_extremes(mask.astype(np.int8))
        assert (low.tolist(), high.tolist()) == extremes(mask.astype(int))
        inner = inner_boundary(mask, grid)
        outer = np.flatnonzero(~mask & (high >= 1))
        assert inner.tolist() == [i for i in range(len(grid)) if mask[i] and any(
            j is None or not mask[j] for j in nbrs[i])]
        assert outer.tolist() == [i for i in range(len(grid)) if not mask[i] and any(
            j is not None and mask[j] for j in nbrs[i])]
    for _ in range(20):                 # depth-order ranks, as psi_curve reads them
        ranks = rng.permutation(len(grid))
        low, high = grid.neighbor_extremes(ranks)
        assert (low.tolist(), high.tolist()) == extremes(ranks)


def test_exterior_distance_of_each_point():
    grid = LatticeGrid(((-1.0, 1.0, 0.5), (0.0, 0.3, 0.1)))
    pts = grid.points
    want = [min(p[0] + 1.5, 1.5 - p[0], p[1] + 0.1, (grid.points[-1, 1] + 0.1) - p[1])
            for p in pts]
    assert grid.exterior_distance(pts).tolist() == want


class CountingSpace(EuclideanSpace):
    """R^d that counts its distance evaluations."""

    evals = 0

    def dists_to(self, points, q):
        self.evals += len(points)
        return super().dists_to(points, q)

    paired_distances = dists_to


def test_lattice_curves_evaluate_few_distances():
    # The grid-2d lattice: the sweeps make N^2/2 = 21.5 M evaluations each.
    space = CountingSpace(2)
    sample = Sample(halton_normal(300, 2, 7), space)
    grid = LatticeGrid(((-4.0, 4.0, 0.1),) * 2)
    field = batch_depth(grid, sample)
    lambdas = default_lambda_grid(field, count=50)
    budgets = {"diam": 1_000_000, "inradius": 6_000_000}
    for kind, budget in budgets.items():
        space.evals = 0
        psi_curve(field, kind, lambdas, grid=grid)
        assert 0 < space.evals < budget
    # At every distinct depth nearly every point is measured as it leaves,
    # against the members above it: never more than the sweep's pairs.
    space.evals = 0
    psi_curve(field, "inradius", np.unique(field.values), grid=grid)
    n = len(grid)
    assert 0 < space.evals <= n * (n - 1) // 2


def test_walks_off_the_lattice_measure_each_pair_once():
    # Off a lattice the walks measure every point, against the points after
    # it in depth order: each pair once, as the sweeps do.
    space = CountingSpace(2)
    field = self_depth_field(Sample(halton_normal(300, 2, 7), space))
    levels = np.unique(field.values)
    space.evals = 0
    psi_curve(field, "diam", levels)
    assert space.evals == 300 * 299 // 2
    space.evals = 0
    psi_curve(field, "inradius", levels[1:])     # level 0 leaves no complement
    assert 0 < space.evals <= 300 * 299 // 2
