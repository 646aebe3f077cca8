import dataclasses
import re

import numpy as np
import pytest
from scipy.stats import norm, t as tdist

from lensdepth.depth import DepthField, Sample, batch_depth, self_depth_field
from lensdepth.dispersion import (
    DispersionError,
    OrderVerdict,
    PsiCurve,
    gamma,
    gamma_t_vs_normal_grid,
    giovagnoli_order,
    psi_curve,
    spread_out_ge,
    strong_order,
    weak_order,
)
from lensdepth.levelsets import LatticeGrid, LevelSetError
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace

from conftest import _tn_dominates, gamma_t_vs_normal, random_tree, random_unit_vectors

E1 = EuclideanSpace(1)
E2 = EuclideanSpace(2)


def curve(values, lambdas=None, kind="diam"):
    values = np.asarray(values, dtype=float)
    if lambdas is None:
        lambdas = np.linspace(0.0, 0.5, len(values))
    return PsiCurve(np.asarray(lambdas, float), values, kind)


def normal_diam(lam, sigma=1.0):
    u = (1 + np.sqrt(np.maximum(1 - 2 * np.asarray(lam, float), 0.0))) / 2
    return 2 * sigma * norm.ppf(u)


def t_diam(lam, v):
    u = (1 + np.sqrt(np.maximum(1 - 2 * np.asarray(lam, float), 0.0))) / 2
    return 2 * tdist.ppf(u, v)


# ---------------------------------------------------------------------------
# Curves


def test_psi_curve_monotone_and_zero_level(rng):
    sample = Sample(rng.standard_normal(120), E1)
    field = self_depth_field(sample)
    lambdas = np.linspace(0.0, field.max_value, 40)
    c = psi_curve(field, "diam", lambdas)
    assert np.all(np.diff(c.values) <= 1e-12)
    full = sample.distance_matrix.max()
    assert c.values[0] == full


def test_psi_curve_all_levels_above_max(rng):
    sample = Sample(rng.standard_normal(30), E1)
    field = self_depth_field(sample)
    c = psi_curve(field, "diam", np.linspace(1.1, 2.0, 5))
    assert np.all(c.values == 0.0)
    assert c.empty_from == pytest.approx(1.1)


def test_psi_curve_matches_quantile_spread(rng):
    sample = Sample(rng.standard_normal(900), E1)
    grid = LatticeGrid(((-4.0, 4.0, 0.02),))
    field = batch_depth(grid, sample, threads=2)
    lambdas = np.linspace(0.02, 0.45, 30)
    c = psi_curve(field, "diam", lambdas)
    expected = normal_diam(lambdas)
    assert np.max(np.abs(c.values - expected)) < 0.30


def test_psi_curve_inradius_full_lattice_uses_exterior():
    grid = LatticeGrid(((0.0, 10.0, 1.0),))
    field = DepthField(points=grid.points, values=np.ones(11), n=5, space=E1, grid=grid)
    c = psi_curve(field, "inradius", np.array([0.0, 0.5]))
    # center of 0..10 is 5 away from either end, plus one virtual step
    assert c.values[0] == 6.0


def oracle_curve(field, kind, lambdas, exterior=None):
    """Per-level diameter or inradius from a full distance matrix;
    `exterior` holds each point's distance to the non-member points
    outside the evaluation set."""
    dmat = field.space.pairwise(field.points)
    out = []
    for lam in lambdas:
        members = np.flatnonzero(field.values >= lam)
        rest = np.flatnonzero(field.values < lam)
        if len(members) == 0:
            out.append(0.0)
        elif kind == "diam":
            out.append(dmat[np.ix_(members, members)].max())
        else:
            nearest = np.full(len(members), np.inf)
            if len(rest):
                nearest = dmat[np.ix_(members, rest)].min(axis=1)
            if exterior is not None:
                nearest = np.minimum(nearest, exterior[members])
            out.append(nearest.max())
    return np.array(out)


def tie_levels(values):
    """Every distinct depth, the midpoints between them, and two levels above."""
    v = np.unique(values)
    return np.unique(np.concatenate([v, (v[:-1] + v[1:]) / 2, v[-1] + [0.25, 0.5]]))


def check_against_oracle(field, lambdas, exterior=None):
    lambdas = np.unique(lambdas)
    for kind in ("diam", "inradius"):
        levels = lambdas
        if kind == "inradius" and exterior is None:
            levels = lambdas[lambdas > field.values.min()]
        got = psi_curve(field, kind, levels)
        assert np.array_equal(got.values, oracle_curve(field, kind, levels, exterior))
        empty = levels[levels > field.values.max()]
        assert got.empty_from == (float(empty[0]) if len(empty) else None)


@pytest.mark.parametrize("cached", [False, True])
def test_psi_curves_match_oracle_on_tied_lattice_sample(rng, cached):
    pts = rng.integers(-3, 4, size=(60, 2)).astype(float)
    pts[40:] = pts[:20]                     # exact duplicates
    sample = Sample(pts, E2)
    field = self_depth_field(sample)
    assert field.distance_matrix is sample.distance_matrix
    if not cached:
        field = dataclasses.replace(field, distance_matrix=None)
    assert len(np.unique(field.values)) < 40
    check_against_oracle(field, np.concatenate([[0.0], tie_levels(field.values)]))


def test_psi_curves_match_oracle_on_bounded_lattice(rng):
    grid = LatticeGrid(((-3.0, 3.0, 0.5), (-2.0, 2.5, 0.5)))
    sample = Sample(rng.integers(-2, 3, size=(25, 2)).astype(float), E2)
    field = batch_depth(grid, sample)
    # exterior: distances to the lattice positions one step outside the box
    outside = []
    for d, (lo, hi, step) in enumerate(grid.axes):
        for edge in (lo - step, grid.points[:, d].max() + step):
            pts = grid.points.copy()
            pts[:, d] = edge
            outside.append(pts)
    outside = np.concatenate(outside)
    exterior = np.array([E2.dists_to(outside, p).min() for p in grid.points])
    check_against_oracle(field, np.concatenate([[0.0], tie_levels(field.values)]),
                         exterior=exterior)
    # at level 0 every point is a member and only the exterior bounds it
    full = psi_curve(field, "inradius", np.array([0.0, 1.0]))
    assert full.values[0] == exterior.max() > 0.0


def test_psi_curves_match_oracle_on_sphere_sample(rng):
    pts = random_unit_vectors(rng, 40, 3)
    pts[30:] = pts[:10]
    sample = Sample(pts, SphereSpace(3))
    field = self_depth_field(sample)
    lambdas = np.concatenate([[0.0], tie_levels(field.values)])
    check_against_oracle(field, lambdas)
    check_against_oracle(dataclasses.replace(field, distance_matrix=None), lambdas)


def test_psi_curves_match_oracle_on_tree_sample(rng):
    labels = tuple("ABCDEF")
    trees = [random_tree(labels, rng) for _ in range(10)]
    sample = Sample(trees + trees[:3], BHVSpace(labels))
    field = self_depth_field(sample)
    assert field.points.dtype == object and field.points.shape == (13,)
    lambdas = np.concatenate([[0.0], tie_levels(field.values)])
    check_against_oracle(field, lambdas)
    check_against_oracle(dataclasses.replace(field, distance_matrix=None), lambdas)


def test_psi_volume_curve_matches_psi_volume(rng):
    grid = LatticeGrid(((-3.0, 3.0, 0.25),))
    field = batch_depth(grid.points, Sample(rng.integers(-2, 3, 30).astype(float), E1))
    reference = Sample(rng.uniform(-3, 3, 400), E1)
    lambdas = tie_levels(field.values)
    got = psi_curve(field, "volume", lambdas, reference=reference, reference_mass=6.0)
    ref = field.values[E1.cross_matrix(reference.points, field.points).argmin(axis=1)]
    want = [6.0 * float(np.mean(ref >= lam)) for lam in lambdas]
    assert got.values.tolist() == want
    assert got.empty_from == lambdas[-2]


@pytest.mark.parametrize("mass", [np.nan, np.inf, 0.0, -1.0])
def test_psi_volume_curve_rejects_bad_reference_mass(rng, mass):
    sample = Sample(rng.standard_normal(20), E1)
    field = self_depth_field(sample)
    with pytest.raises(DispersionError, match="reference mass"):
        psi_curve(field, "volume", [0.0, 0.2], reference=sample, reference_mass=mass)


def test_psi_volume_curve_needs_a_nonempty_reference(rng):
    field = self_depth_field(Sample(rng.standard_normal(20), E1))
    for reference in (None, Sample(np.empty((0, 1)), E1)):
        with pytest.raises(DispersionError, match="nonempty reference sample"):
            psi_curve(field, "volume", [0.0, 0.2], reference=reference)


def test_psi_inradius_needs_a_complement_without_exterior(rng):
    sample = Sample(rng.standard_normal((12, 2)), E2)
    field = self_depth_field(sample)
    lambdas = np.array([0.0, field.values.max()])
    with pytest.raises(LevelSetError, match="empty complement"):
        psi_curve(field, "inradius", lambdas)


def test_psi_inradius_error_names_the_smallest_depth(rng):
    """A grid starting above 0 but at or below the smallest depth still
    has an empty complement at its first level; the error says where the
    grid must start."""
    sample = Sample(rng.standard_normal((12, 2)), E2)
    field = batch_depth(sample.points, sample)      # each point's own pairs cover it
    low, top = field.values.min(), field.values.max()
    assert low > 0
    with pytest.raises(LevelSetError, match=re.escape(f"above the smallest depth, {float(low)!r}")):
        psi_curve(field, "inradius", [low, top])
    assert psi_curve(field, "inradius", [np.nextafter(low, 1.0), top]).values[0] > 0


# ---------------------------------------------------------------------------
# Orders


def test_spread_out_reflexive(rng):
    c = curve(np.sort(rng.uniform(0, 1, 30))[::-1])
    v = spread_out_ge(c, c)
    assert v.holds and v.witness is None


def test_spread_out_vs_point_mass(rng):
    cx = curve(np.sort(rng.uniform(0, 1, 30))[::-1])
    cy = curve(np.full(30, 0.0))
    assert spread_out_ge(cx, cy).holds


def test_spread_out_t2_vs_normal_closed_form():
    lam = np.linspace(1e-6, 0.4999, 500)
    cx = curve(t_diam(lam, 2), lam)
    cy = curve(normal_diam(lam), lam)
    got = spread_out_ge(cx, cy)
    # oracle: direct all-pairs quantile-difference comparison
    dx, dy = t_diam(lam, 2), normal_diam(lam)
    ok = True
    for i in range(0, 500, 7):
        for j in range(i + 1, 500, 7):
            if (dx[i] - dx[j]) < (dy[i] - dy[j]) - 1e-12:
                ok = False
    assert got.holds == ok


def test_spread_out_transitive_on_monotone_curves(rng):
    lam = np.linspace(0, 0.5, 25)
    for _ in range(50):
        base = np.sort(rng.uniform(0, 1, 25))[::-1]
        shrink1 = base * rng.uniform(0.2, 1.0)
        shrink2 = shrink1 * rng.uniform(0.2, 1.0)
        ca, cb, cc = curve(base, lam), curve(shrink1, lam), curve(shrink2, lam)
        if spread_out_ge(ca, cb).holds and spread_out_ge(cb, cc).holds:
            assert spread_out_ge(ca, cc).holds


def test_strong_and_weak_reflexive(rng):
    c = curve(rng.uniform(0, 1, 20))
    assert strong_order(c, c).holds
    assert weak_order(c, c).holds


def test_strong_implies_weak_randomized(rng):
    lam = np.linspace(0, 0.5, 30)
    for _ in range(200):
        a = curve(rng.uniform(0, 1, 30), lam)
        b = curve(rng.uniform(0, 1, 30), lam)
        if strong_order(a, b).holds:
            assert weak_order(a, b).holds
            assert gamma(a, b) == 1.0


def test_strong_scaled_normal_closed_form():
    lam = np.linspace(1e-6, 0.4999, 300)
    c2 = curve(normal_diam(lam, 2.0), lam)
    c1 = curve(normal_diam(lam, 1.0), lam)
    assert strong_order(c2, c1).holds
    assert not strong_order(c1, c2).holds
    assert weak_order(c2, c1).holds


def test_verdict_witness_iff_failure(rng):
    lam = np.linspace(0, 0.5, 20)
    a = curve(np.linspace(1, 0.5, 20), lam)
    b = curve(np.linspace(0.4, 0.9, 20), lam)
    v = strong_order(a, b)
    assert not v.holds and v.witness is not None
    with pytest.raises(DispersionError):
        OrderVerdict("strong", True, 0.3, 0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_orders_reject_non_finite_tolerance(rng, tol):
    c = curve(rng.uniform(0, 1, 20))
    for order in (spread_out_ge, strong_order, weak_order):
        with pytest.raises(DispersionError, match="tolerance"):
            order(c, c, tol=tol)
    s = Sample(rng.standard_normal((10, 2)), E2)
    with pytest.raises(DispersionError, match="tolerance"):
        giovagnoli_order(s, s, tol=tol)


def test_grid_mismatch_rejected(rng):
    a = curve(rng.uniform(0, 1, 20))
    b = curve(rng.uniform(0, 1, 21), np.linspace(0, 0.5, 21))
    with pytest.raises(DispersionError):
        strong_order(a, b)


# ---------------------------------------------------------------------------
# Gamma


def test_gamma_identical_exactly_one(rng):
    for _ in range(100):
        n = int(rng.integers(5, 40))
        lam = np.unique(np.concatenate([rng.uniform(0, 1, n - 1), [1.5]]))
        c = curve(rng.uniform(0, 2, len(lam)), lam)
        assert gamma(c, c) == 1.0


def test_gamma_dominated_everywhere_zero(rng):
    lam = np.linspace(0, 0.5, 30)
    a = curve(rng.uniform(0, 1, 30), lam)
    b = curve(a.values + 0.5, lam)
    assert gamma(a, b) == 0.0
    assert gamma(b, a) == 1.0


def test_gamma_scale_invariance(rng):
    lam = np.linspace(0, 0.5, 30)
    a = curve(rng.uniform(0, 1, 30), lam)
    b = curve(rng.uniform(0, 1, 30), lam)
    g = gamma(a, b)
    scaled_a = PsiCurve(a.lambdas, a.values * 3.7, a.kind)
    scaled_b = PsiCurve(b.lambdas, b.values * 3.7, b.kind)
    assert gamma(scaled_a, scaled_b) == pytest.approx(g, abs=1e-12)


def test_gamma_in_unit_interval(rng):
    lam = np.linspace(0, 0.5, 40)
    for _ in range(50):
        a = curve(rng.uniform(0, 1, 40), lam)
        b = curve(rng.uniform(0, 1, 40), lam)
        assert 0.0 <= gamma(a, b) <= 1.0


def test_gamma_with_infinite_psi_values():
    # A level set holding points whose distance overflows has psi = inf.
    # Equal infinities tie, and a crossing from psi_X - psi_Y = +inf sits
    # at the far end of its segment; no step may meet inf - inf or inf / inf.
    lam = np.linspace(0.0, 0.3, 4)
    a = curve([np.inf, np.inf, 1.0, 1.0], lam)
    b = curve([np.inf, 3.0, 2.0, 0.5], lam)
    assert gamma(a, a) == gamma(b, b) == 1.0
    assert gamma(a, b) == pytest.approx(7 / 9, rel=1e-12)
    assert gamma(b, a) == pytest.approx(2 / 9, rel=1e-12)


def test_gamma_closed_form_oracle_with_refinement():
    v, sigma = 2, 1.1
    fx = lambda lam: t_diam(lam, v)
    fy = lambda lam: normal_diam(lam, sigma)
    lam = np.linspace(1e-9, 0.5 - 1e-9, 200_000)
    cx = curve(fx(lam), lam)
    cy = curve(fy(lam), lam)
    got = gamma(cx, cy)
    expected = gamma_t_vs_normal(v, sigma)
    assert got == pytest.approx(expected, abs=1e-3)


# ---------------------------------------------------------------------------
# t vs normal closed form


def test_tn_gamma_degenerate_sigma():
    assert gamma_t_vs_normal_grid([3], [1e-12])[0, 0] == 1.0


def test_tn_gamma_two_methods_agree_spotchecks():
    for v in (1, 2, 5):
        for sigma in (0.3, 1.0, 1.7, 4.0):
            q = gamma_t_vs_normal_grid([v], [sigma])[0, 0]
            assert q == pytest.approx(gamma_t_vs_normal(v, sigma), abs=1e-4)


def test_tn_gamma_grid_matches_pointwise():
    vs = [1, 4]
    sigmas = np.array([0.5, 1.0, 2.0])
    table = gamma_t_vs_normal_grid(vs, sigmas, points=20_000)
    for i, v in enumerate(vs):
        for j, s in enumerate(sigmas):
            single = gamma_t_vs_normal_grid([v], [s], 20_000)[0, 0]
            assert table[i, j] == pytest.approx(single, abs=1e-12)


def tn_dominates_reference(lam, v, sigma):
    u = (1 + np.sqrt(np.maximum(1 - 2 * lam, 0.0))) / 2
    return tdist.ppf(u, v) >= sigma * norm.ppf(u)


@pytest.mark.parametrize("v", [1, 2, 3.5, 10, 30])
def test_tn_dominates_matches_scipy_stats_reference(v):
    # the bisection scan's midpoints, its geometric sentinels near both
    # ends, the ends themselves, and a dense grid
    edges = 0.5 * np.power(10.0, -np.arange(1, 14, dtype=float))
    lam = np.concatenate([(np.arange(2048) + 0.5) * (0.5 / 2048), edges, 0.5 - edges,
                          [0.0, 0.5], np.linspace(0.0, 0.5, 20_001)])
    for sigma in (1e-12, 0.05, 0.7, 1.0, 1.3, 5.0):
        assert np.array_equal(_tn_dominates(lam, v, sigma),
                              tn_dominates_reference(lam, v, sigma))


def test_tn_gamma_grid_matches_scipy_stats_reference():
    vs, sigmas, points = [1, 2, 5], np.array([0.05, 0.5, 1.0, 2.0, 5.0]), 20_000
    lam = (np.arange(points) + 0.5) * (0.5 / points)
    u = (1.0 + np.sqrt(1.0 - 2.0 * lam)) / 2.0
    want = [[float((tdist.ppf(u, v) / norm.ppf(u) >= s).mean()) for s in sigmas]
            for v in vs]
    assert gamma_t_vs_normal_grid(vs, sigmas, points).tolist() == want


def test_tn_gamma_invalid_parameters():
    with pytest.raises(DispersionError):
        gamma_t_vs_normal(0.5, 1.0)
    with pytest.raises(DispersionError):
        gamma_t_vs_normal(2, 0.0)


def test_normal_self_comparison_gamma_one():
    lam = np.linspace(1e-6, 0.4999, 100)
    a = curve(normal_diam(lam), lam)
    assert gamma(a, a) == 1.0


# ---------------------------------------------------------------------------
# Distance-distribution order


def test_giovagnoli_reflexive(rng):
    s = Sample(rng.standard_normal((20, 2)), E2)
    assert giovagnoli_order(s, s).holds


def test_giovagnoli_scaling(rng):
    pts = rng.standard_normal((30, 2))
    sx = Sample(pts, E2)
    sy = Sample(pts / 2, E2)
    assert giovagnoli_order(sx, sy).holds
    assert not giovagnoli_order(sy, sx).holds


def test_giovagnoli_crossing_cdfs_fails_with_witness():
    # X distances all equal 1; Y distances are {0.5, 2}: the ECDFs cross
    sx = Sample(np.array([[0.0], [1.0]]), E1)
    sy = Sample(np.array([[0.0], [0.5], [2.5]]), E1)
    vx = giovagnoli_order(sx, sy)
    assert not vx.holds and vx.witness is not None
    # oracle: ECDF_X(1) = 1 > ECDF_Y(1) = 1/3
    assert vx.witness == 1.0


def test_giovagnoli_needs_two_points(rng):
    with pytest.raises(DispersionError):
        giovagnoli_order(Sample(np.array([[1.0]]), E1),
                         Sample(rng.standard_normal((5, 1)), E1))


def test_isometry_invariance_of_verdicts(rng):
    ptsx = rng.standard_normal((25, 2))
    ptsy = rng.standard_normal((25, 2)) * 1.4
    qx, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    qy, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    base = giovagnoli_order(Sample(ptsx, E2), Sample(ptsy, E2))
    moved = giovagnoli_order(Sample(ptsx @ qx.T + 3.0, E2),
                             Sample(ptsy @ qy.T - 1.0, E2))
    assert base.holds == moved.holds
    assert base.margin == pytest.approx(moved.margin, abs=1e-12)
