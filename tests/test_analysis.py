import numpy as np
import pytest
from scipy.stats import norm

from lensdepth.analysis import (
    depth_depth,
    diameter_curve_by_group,
    loo_depth_against,
    outliers,
)
from lensdepth.depth import (
    DepthError,
    DepthField,
    Sample,
    empirical_lens_depth,
    self_depth_field,
)
from lensdepth.levelsets import LevelSetError, level_set
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace

from conftest import random_tree

E1 = EuclideanSpace(1)
E2 = EuclideanSpace(2)


def field_of(values):
    values = np.asarray(values, dtype=float)
    return DepthField(points=np.arange(len(values), dtype=float).reshape(-1, 1),
                      values=values, n=9, space=E1)


# ---------------------------------------------------------------------------
# Depth-depth


def test_identical_groups_disjoint_queries_on_diagonal(rng):
    pts = rng.standard_normal((25, 2))
    g = Sample(pts, E2)
    queries = rng.standard_normal((10, 2)) + 5.0
    records = depth_depth(g, Sample(pts.copy(), E2), points=queries)
    for r in records:
        assert r.depth0 == r.depth1
        assert r.group is None


def test_point_far_from_both_groups(rng):
    g0 = Sample(rng.standard_normal((12, 2)), E2)
    g1 = Sample(rng.standard_normal((12, 2)) + 2.0, E2)
    records = depth_depth(g0, g1, points=np.array([[500.0, 500.0]]))
    assert records[0].depth0 == 0.0 and records[0].depth1 == 0.0


def test_pooled_records_use_leave_one_out(rng):
    pts0 = rng.standard_normal((8, 2))
    pts1 = rng.standard_normal((8, 2)) + 1.0
    g0, g1 = Sample(pts0, E2), Sample(pts1, E2)
    records = depth_depth(g0, g1)
    assert len(records) == 16
    r0 = records[0]
    assert r0.group == 0
    assert r0.depth0 == empirical_lens_depth(pts0[0], g0, exclude=0)
    assert r0.depth1 == empirical_lens_depth(pts0[0], g1)
    r1 = records[8]
    assert r1.group == 1
    assert r1.depth1 == empirical_lens_depth(pts1[0], g1, exclude=0)


def test_explicit_point_matching_sample_point_gets_loo(rng):
    pts = rng.standard_normal((10, 2))
    g = Sample(pts, E2)
    vals = loo_depth_against(pts[3:4], g)
    assert vals[0] == empirical_lens_depth(pts[3], g, exclude=3)


def test_loo_matches_exact_copies_not_zero_distance():
    rng = np.random.default_rng(0)
    space = SphereSpace(3)
    pts = rng.standard_normal((40, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    g = Sample(pts, space)
    # about 1e-9 rad away from pts[0]: a distinct point with a tiny arc
    tangent = np.cross(pts[0], [0.0, 0.0, 1.0])
    near = pts[0] + 1e-9 * tangent / np.linalg.norm(tangent)
    near /= np.linalg.norm(near)
    assert not np.array_equal(near, pts[0])
    assert 0.0 < space.distance(near, pts[0]) < 2e-9
    vals = loo_depth_against(np.stack([near, pts[0]]), g)
    assert vals[0] == empirical_lens_depth(near, g)
    assert vals[1] == empirical_lens_depth(pts[0], g, exclude=0)
    # a distinct point at distance exactly 0: its squared offset underflows
    line = Sample(np.array([[0.0], [1.0], [2.0], [3.0]]), E1)
    tiny = np.array([[1e-170], [0.0]])
    assert E1.distance(tiny[0], np.array([0.0])) == 0.0
    vals = loo_depth_against(tiny, line)
    assert vals[0] == empirical_lens_depth(tiny[0], line)
    assert vals[1] == empirical_lens_depth(tiny[1], line, exclude=0)
    assert vals[0] != vals[1]


@pytest.mark.parametrize("n", [1, 2])
def test_loo_depth_rejects_samples_below_three(n):
    g = Sample(np.arange(n, dtype=float).reshape(-1, 1), E1)
    with pytest.raises(DepthError, match="leave-one-out depth needs n >= 3"):
        loo_depth_against(np.array([[0.0], [0.5]]), g)


def test_loo_depth_rejects_empty_point_set(rng):
    g = Sample(rng.standard_normal((10, 2)), E2)
    with pytest.raises(DepthError):
        loo_depth_against(np.empty((0, 2)), g)


def test_separated_gaussians_classified_by_depth(rng):
    n = 200
    g0 = Sample(rng.standard_normal((n, 2)) + [-3.0, 0.0], E2)
    g1 = Sample(rng.standard_normal((n, 2)) + [3.0, 0.0], E2)
    records = depth_depth(g0, g1, threads=2)
    own = sum((r.depth0 > r.depth1) == (r.group == 0) for r in records)
    assert own / len(records) >= 0.95


def test_depth_depth_group_swap_symmetry(rng):
    g0 = Sample(rng.standard_normal((10, 2)), E2)
    g1 = Sample(rng.standard_normal((10, 2)), E2)
    queries = rng.standard_normal((6, 2))
    fwd = depth_depth(g0, g1, points=queries)
    rev = depth_depth(g1, g0, points=queries)
    for a, b in zip(fwd, rev):
        assert (a.depth0, a.depth1) == (b.depth1, b.depth0)


def test_small_groups_rejected(rng):
    with pytest.raises(DepthError):
        depth_depth(Sample(rng.standard_normal((2, 2)), E2),
                    Sample(rng.standard_normal((9, 2)), E2))


# ---------------------------------------------------------------------------
# Outliers and deepest point


def test_outliers_level_zero_empty():
    assert outliers(field_of([0.0, 0.2, 0.9]), 0.0).tolist() == []


def test_outliers_level_above_one_everything():
    assert outliers(field_of([0.0, 0.2, 1.0]), 1.01).tolist() == [0, 1, 2]


@pytest.mark.parametrize("lam", [np.nan, np.inf, -0.1])
def test_outliers_reject_levels_the_level_set_rejects(lam):
    with pytest.raises(LevelSetError):
        outliers(field_of([0.0, 0.2, 1.0]), lam)


def test_outliers_complement_of_level_set_exactly(rng):
    f = field_of(rng.uniform(0, 1, 60))
    for lam in (0.1, 0.37, 0.8):
        flagged = set(outliers(f, lam).tolist())
        members = set(level_set(f, lam).members.tolist())
        assert flagged == set(range(60)) - members


def test_outliers_normal_closed_form_band(rng):
    n = 300
    pts = rng.standard_normal(n)
    sample = Sample(pts, E1)
    field = self_depth_field(sample, threads=2)
    flagged = set(outliers(field, 0.10).tolist())
    # population threshold: depth < 0.1 iff F outside [(1-sqrt(0.8))/2, ...]
    lo = (1 - np.sqrt(0.8)) / 2
    hi = (1 + np.sqrt(0.8)) / 2
    f_vals = norm.cdf(pts)
    band = 0.030    # finite-sample fuzziness near the threshold
    must_flag = set(np.flatnonzero((f_vals < lo - band) | (f_vals > hi + band)).tolist())
    may_flag = set(np.flatnonzero((f_vals < lo + band) | (f_vals > hi - band)).tolist())
    assert must_flag <= flagged <= may_flag


def test_deepest_never_an_outlier(rng):
    f = field_of(rng.uniform(0, 1, 40))
    lam = f.max_value * 0.999
    assert int(np.argmax(f.values)) not in set(outliers(f, lam).tolist())


# ---------------------------------------------------------------------------
# Group curves


def test_identical_points_group_zero_curve():
    pts = np.zeros((5, 1))
    sample = Sample(pts, E1)
    lambdas = np.linspace(0, 1, 11)
    curves = diameter_curve_by_group({"g": sample}, {"g": self_depth_field(sample)},
                                     lambdas)
    assert np.all(curves["g"].values == 0.0)


def test_group_curve_level_zero_is_full_diameter(rng):
    pts = rng.standard_normal((40, 2))
    sample = Sample(pts, E2)
    lambdas = np.linspace(0, 0.8, 9)
    curves = diameter_curve_by_group({"g": sample}, {"g": self_depth_field(sample)},
                                     lambdas)
    assert curves["g"].values[0] == sample.distance_matrix.max()


def test_bhv_groups_noisier_year_dominates(rng):
    labels = tuple("ABCDE")
    base = random_tree(labels, rng)
    space = BHVSpace(labels)

    def year(scale, n, seed):
        local = np.random.default_rng(seed)
        trees = []
        for _ in range(n):
            il = np.abs(np.array([l for _, l in base.interior])
                        + scale * local.standard_normal(len(base.interior)))
            pl = np.abs(np.array(base.pendant)
                        + scale * local.standard_normal(5))
            trees.append(base.with_lengths(np.maximum(il, 1e-6), pl))
        return Sample(trees, space)

    groups = {"1999": year(0.05, 25, 11), "2000": year(0.10, 25, 12)}
    fields = {k: self_depth_field(s) for k, s in groups.items()}
    # stay below the top level, where a level set degenerates to a singleton
    top = 0.8 * min(f.max_value for f in fields.values())
    lambdas = np.linspace(0.0, top, 12)
    curves = diameter_curve_by_group(groups, fields, lambdas)
    assert np.all(curves["2000"].values >= curves["1999"].values - 1e-12)
