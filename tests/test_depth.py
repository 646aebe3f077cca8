import math

import numpy as np
import pytest
from scipy.stats import norm

from lensdepth import depth
from lensdepth.depth import (
    DepthError,
    Sample,
    batch_depth,
    empirical_lens_depth,
    population_ld_1d,
    population_ld_mc,
    population_level_interval_1d,
    self_depth_field,
)
from lensdepth.analysis import loo_depth_against
from lensdepth.asymptotics import make_sampler, run_config
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace

from conftest import random_tree, random_unit_vectors, space_with_points

E1 = EuclideanSpace(1)
E2 = EuclideanSpace(2)


def s1d(values):
    return Sample(np.asarray(values, dtype=float), E1)


# ---------------------------------------------------------------------------
# Lens membership: the depth against the two-point sample {y1, y2} is 1.0
# exactly when x lies in their lens.


def in_lens(x, y1, y2, space):
    return empirical_lens_depth(x, Sample([y1, y2], space)) == 1.0


def test_in_lens_at_center_point():
    assert in_lens(np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                   np.array([5.0, 5.0]), E2)


def test_in_lens_midpoint():
    assert in_lens(np.array([0.5]), np.array([0.0]), np.array([1.0]), E1)


def test_in_lens_outside():
    assert not in_lens(np.array([3.0]), np.array([0.0]), np.array([1.0]), E1)


def test_in_lens_boundary_tie_counts_inside():
    # 1-d lens of (0, 1) is exactly [0, 1]: both endpoints are in
    assert in_lens(np.array([0.0]), np.array([0.0]), np.array([1.0]), E1)
    assert in_lens(np.array([1.0]), np.array([0.0]), np.array([1.0]), E1)


def test_in_lens_degenerate_pair_is_singleton():
    y = np.array([2.0])
    assert in_lens(np.array([2.0]), y, y, E1)
    assert not in_lens(np.array([2.0 + 1e-9]), y, y, E1)


# ---------------------------------------------------------------------------
# Scalar estimator


def test_depth_n2_sample_point():
    assert empirical_lens_depth(np.array([0.0]), s1d([0.0, 1.0])) == 1.0


def test_depth_012_brute_force_values():
    # direct evaluation over the three pairs: lenses are [0,1], [0,2], [1,2]
    s = s1d([0.0, 1.0, 2.0])
    assert empirical_lens_depth(np.array([3.0]), s) == 0.0
    assert empirical_lens_depth(np.array([1.0]), s) == 1.0
    assert empirical_lens_depth(np.array([0.0]), s) == pytest.approx(2 / 3)
    assert empirical_lens_depth(np.array([2.0]), s) == pytest.approx(2 / 3)


def test_depth_requires_two_points():
    with pytest.raises(DepthError):
        empirical_lens_depth(np.array([0.0]), s1d([1.0]))


def test_depth_range_and_quantization(rng):
    n = 9
    s = Sample(rng.standard_normal((n, 2)), E2)
    pairs = n * (n - 1) // 2
    for q in rng.standard_normal((20, 2)):
        v = empirical_lens_depth(q, s)
        assert 0.0 <= v <= 1.0
        assert round(v * pairs) == pytest.approx(v * pairs, abs=1e-9)


# ---------------------------------------------------------------------------
# Batch estimator


def test_batch_matches_sample_points():
    f = batch_depth(np.array([[0.0], [1.0], [2.0]]), s1d([0.0, 1.0, 2.0]))
    assert f.values.tolist() == [2 / 3, 1.0, 2 / 3]


def test_batch_single_pair_values():
    f = batch_depth(np.array([[0.3], [9.0]]), s1d([0.0, 1.0]))
    assert set(f.values.tolist()) <= {0.0, 1.0}


@pytest.mark.parametrize("kind", ["euclidean", "sphere", "stiefel-procrustes"])
def test_batch_equals_naive_loop_exactly(kind, rng):
    space, pts = space_with_points(kind, rng, 26)
    sample = Sample(pts[:20], space)
    queries = pts[20:]
    field = batch_depth(queries, sample)
    for i in range(len(queries)):
        assert field.values[i] == empirical_lens_depth(queries[i], sample)


def test_batch_independent_of_threads(rng):
    pts = rng.standard_normal((40, 2))
    sample = Sample(pts, E2)
    queries = rng.standard_normal((33, 2))
    base = batch_depth(queries, sample, threads=1)
    for threads in (2, 4, 8):
        assert np.array_equal(base.values,
                              batch_depth(queries, sample, threads=threads).values)


def _lattice_sample(rng):
    """Integer lattice points in R^2 with duplicates: many exact ties."""
    pts = rng.integers(-2, 3, size=(14, 2)).astype(float)
    pts[7:10] = pts[0]
    return Sample(pts, E2)


def _first_equal(q, pts):
    hits = np.flatnonzero((pts == q).all(axis=1))
    return int(hits[0]) if len(hits) else None


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_count_path_matches_naive_on_ties(threads, rng):
    sample = _lattice_sample(rng)
    pts = sample.points
    # exact sample copies plus lattice queries; 13 is not divisible by 2 or 3
    queries = np.concatenate([pts[[0, 3, 8]],
                              rng.integers(-3, 4, size=(10, 2)).astype(float)])
    assert _first_equal(queries[2], pts) == 0      # pts[8] duplicates pts[0]
    field = batch_depth(queries, sample, threads=threads)
    assert field.values.tolist() == [empirical_lens_depth(q, sample) for q in queries]
    self_field = self_depth_field(sample, threads=threads)
    assert self_field.values.tolist() == [empirical_lens_depth(pts[e], sample, exclude=e)
                                          for e in range(sample.n)]
    loo = loo_depth_against(queries, sample, threads=threads)
    assert loo.tolist() == [empirical_lens_depth(q, sample, exclude=_first_equal(q, pts))
                            for q in queries]


class SerialExecutor:
    """Stands in for ThreadPoolExecutor: records the worker count asked
    for and runs the tasks in order on the calling thread."""

    requested: list = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cores", [3, None])
def test_thread_pool_never_exceeds_the_core_count(cores, monkeypatch, rng):
    monkeypatch.setattr(depth, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(depth.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(SerialExecutor, "requested", [])
    workers = [] if cores is None else [cores]       # unknown core count: serial
    assert depth.thread_map(lambda x: x * x, range(50), threads=100_000) == \
        [x * x for x in range(50)]
    assert SerialExecutor.requested == workers
    sample = Sample(rng.standard_normal((30, 2)), E2)
    queries = rng.standard_normal((40, 2))
    want = batch_depth(queries, sample, threads=1).counts
    assert np.array_equal(batch_depth(queries, sample, threads=100_000).counts, want)
    assert SerialExecutor.requested == 2 * workers
    config = {"experiment": "supnorm", "sampler": {"dist": "normal"}, "n_schedule": [10],
              "replications": 6, "grid": [[-1.0, 1.0, 0.5]], "seed": 2}
    want = run_config(dict(config, threads=1))
    assert run_config(dict(config, threads=100_000)) == want
    assert SerialExecutor.requested == 3 * workers


def test_count_path_single_query_more_threads(rng):
    sample = _lattice_sample(rng)
    q = sample.points[5]
    assert batch_depth(q[None, :], sample, threads=4).values.tolist() == \
        [empirical_lens_depth(q, sample)]
    assert loo_depth_against(q[None, :], sample, threads=4).tolist() == \
        [empirical_lens_depth(q, sample, exclude=_first_equal(q, sample.points))]


def test_batch_on_trees_matches_naive(rng):
    labels = ("A", "B", "C", "D", "E")
    trees = [random_tree(labels, rng) for _ in range(10)]
    sample = Sample(trees[:7], BHVSpace(labels))
    field = batch_depth(trees[7:], sample)
    for i, t in enumerate(trees[7:]):
        assert field.values[i] == empirical_lens_depth(t, sample)


def test_self_depth_equals_naive_exclusion(rng):
    pts = rng.standard_normal((14, 2))
    sample = Sample(pts, E2)
    field = self_depth_field(sample)
    for i in range(14):
        assert field.values[i] == empirical_lens_depth(pts[i], sample, exclude=i)


def test_self_depth_requires_three():
    with pytest.raises(DepthError):
        self_depth_field(s1d([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Population oracles


def test_population_1d_closed_form_values():
    assert population_ld_1d(0.0, lambda x: 0.5) == 0.5
    assert population_ld_1d(0.0, lambda x: 0.0) == 0.0
    assert population_ld_1d(0.0, lambda x: 0.25) == pytest.approx(0.375)


def test_population_level_interval():
    lo, hi = population_level_interval_1d(0.375, norm.ppf)
    assert lo == pytest.approx(norm.ppf(0.25))
    assert hi == pytest.approx(norm.ppf(0.75))
    for lam in (0.6, math.nan, math.inf, -math.inf):
        with pytest.raises(DepthError):
            population_level_interval_1d(lam, norm.ppf)


def test_population_mc_point_mass():
    sampler = make_sampler({"dist": "point_mass", "value": [4.0]})
    assert population_ld_mc(np.array([4.0]), sampler, 1000, seed=1) == 1.0
    assert population_ld_mc(np.array([5.0]), sampler, 1000, seed=1) == 0.0


def test_population_mc_far_from_support():
    sampler = make_sampler({"dist": "uniform", "lo": 0.0, "hi": 1.0})
    # support diameter is 1; a point 3 away can never be in a lens
    assert population_ld_mc(np.array([4.0]), sampler, 5000, seed=2) == 0.0


def test_population_mc_matches_closed_form():
    sampler = make_sampler({"dist": "normal"})
    got = population_ld_mc(np.array([0.0]), sampler, 1_000_000, seed=3)
    assert got == pytest.approx(0.5, abs=0.002)


# ---------------------------------------------------------------------------
# Invariance and stability properties


def test_isometry_invariance_euclidean(rng):
    pts = rng.standard_normal((20, 3))
    queries = rng.standard_normal((10, 3))
    base = batch_depth(queries, Sample(pts, EuclideanSpace(3))).values
    for _ in range(25):
        q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        moved = batch_depth(queries @ q_mat.T + shift,
                            Sample(pts @ q_mat.T + shift, EuclideanSpace(3))).values
        assert np.array_equal(base, moved)


def test_isometry_invariance_sphere(rng):
    pts = random_unit_vectors(rng, 20, 3)
    queries = random_unit_vectors(rng, 8, 3)
    base = batch_depth(queries, Sample(pts, SphereSpace(3))).values
    for _ in range(25):
        q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rp = pts @ q_mat.T
        rq = queries @ q_mat.T
        rp /= np.linalg.norm(rp, axis=1, keepdims=True)
        rq /= np.linalg.norm(rq, axis=1, keepdims=True)
        moved = batch_depth(rq, Sample(rp, SphereSpace(3))).values
        assert np.array_equal(base, moved)


def test_isometry_invariance_tree_relabeling(rng):
    labels = ("A", "B", "C", "D", "E")
    trees = [random_tree(labels, rng) for _ in range(12)]
    sample = Sample(trees[:9], BHVSpace(labels))
    base = batch_depth(trees[9:], sample).values
    perm = rng.permutation(5)

    def relabel(t):
        new_names = tuple(labels[perm[i]] for i in range(5))
        order = np.argsort(perm)
        new_labels = tuple(new_names[i] for i in order)
        # rebuild via newick text with renamed leaves
        from lensdepth.treespace import parse_newick, to_newick
        text = to_newick(t)
        for old, new in zip(labels, (f"${i}$" for i in range(5))):
            text = text.replace(old, new)
        for i, new in enumerate(new_names):
            text = text.replace(f"${i}$", new)
        return parse_newick(text)

    moved = batch_depth([relabel(t) for t in trees[9:]],
                        Sample([relabel(t) for t in trees[:9]],
                               BHVSpace(tuple(sorted(labels))))).values
    assert np.array_equal(base, moved)


def test_lens_membership_stable_under_small_perturbations(rng):
    # margin > 3*delta implies no membership flip when both lens anchors
    # move by less than delta
    flips = 0
    checked = 0
    while checked < 500:
        x = rng.standard_normal(2)
        y1 = rng.standard_normal(2)
        y2 = rng.standard_normal(2)
        r = np.linalg.norm(y1 - y2)
        margin = min(r - np.linalg.norm(x - y1), r - np.linalg.norm(x - y2))
        delta = rng.uniform(0.01, 0.2)
        if abs(margin) <= 3 * delta:
            continue
        checked += 1
        before = in_lens(x, y1, y2, E2)
        for _ in range(20):
            u1 = rng.standard_normal(2)
            u2 = rng.standard_normal(2)
            p1 = y1 + u1 / np.linalg.norm(u1) * rng.uniform(0, delta * 0.999)
            p2 = y2 + u2 / np.linalg.norm(u2) * rng.uniform(0, delta * 0.999)
            if in_lens(x, p1, p2, E2) != before:
                flips += 1
    assert flips == 0
