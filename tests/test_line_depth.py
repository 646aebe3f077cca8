"""The exact count on the line: one sort of the sample, straddle counts per
query, and a rounding guard that sends near-tie rows to the pairwise
kernel.  Every count must equal the double loop and the kernel on full
distance matrices, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lensdepth.analysis import loo_depth_against
from lensdepth.depth import (
    Sample,
    _line_counts,
    batch_depth,
    empirical_lens_depth,
    self_depth_field,
)
from lensdepth.metrics import EuclideanSpace

from conftest import _count_block, neighbours

LINE = EuclideanSpace(1)


def kernel_counts(queries, sample):
    """Counts of the pairwise kernel on full query and sample matrices."""
    q = LINE.coerce_points(queries)
    return _count_block(LINE.cross_matrix(q, sample.points), LINE.pairwise(sample.points))


def first_equal(x, sample):
    hits = np.flatnonzero(sample.points[:, 0] == x)
    return int(hits[0]) if len(hits) else None


# Each case needs the guard: the plain straddle count is wrong on some row.
# "ulps" and "outlier" need its near-tie rule, "tiny" its subnormal rule
# and "huge" its overflow rule.
ADVERSARIAL = {
    "ulps": ([1.0, 3.0, 2.0, 2.0, 5.0], neighbours([1.0, 2.0, 3.0, 5.0])),
    "outlier": ([-1e20, 0.0, 0.5, 1.0, 1.0, 2.0],
                neighbours([0.0, 0.5, 1.0, 2.0, 7.0])),
    "tiny": (1e-170 * np.array([1.0, 2.0, 2.0, 3.0, 5.0]),
             np.concatenate([neighbours(1e-170 * np.array([1.0, 2.0, 5.0])),
                             [0.0, 4e-170, -1e-170, 9e-170]])),
    "huge": (1e200 * np.array([1.0, 2.0, 2.0, 3.0, -1.0]),
             np.concatenate([neighbours(1e200 * np.array([1.0, 3.0])),
                             [0.0, 4e200, -3e200, 2.5e200]])),
}


def line_oracle_agrees(sample_values, queries):
    sample = Sample(sample_values, LINE)
    # Distances of 1e200-scale points overflow to inf, as in the double loop.
    with np.errstate(over="ignore"):
        field = batch_depth(queries, sample)
        kernel = kernel_counts(queries, sample)
        naive = [empirical_lens_depth(x, sample) for x in queries]
    assert field.counts.tolist() == kernel.tolist()
    assert field.values.tolist() == naive


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_cases_match_kernel_and_double_loop(case):
    sample_values, queries = ADVERSARIAL[case]
    line_oracle_agrees(sample_values, queries)


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_cases_need_the_guard(case):
    sample_values, queries = ADVERSARIAL[case]
    sample = Sample(sample_values, LINE)
    straddle, rows = _line_counts(np.asarray(queries, dtype=float), sample)
    with np.errstate(over="ignore"):
        kernel = kernel_counts(queries, sample)
    assert rows.size > 0
    wrong = np.flatnonzero(straddle != kernel)
    assert wrong.size > 0
    assert set(wrong) <= set(rows)


def test_guard_leaves_well_separated_rows_alone(rng):
    sample = Sample(rng.standard_normal(300), LINE)
    grid = np.arange(-3.0, 3.005, 0.01)
    _, rows = _line_counts(grid, sample)
    assert rows.size == 0


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(-6, 6), min_size=2, max_size=16),
       lattice=st.lists(st.integers(-16, 16), min_size=1, max_size=6),
       offsets=st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 3)), max_size=6),
       scale=st.sampled_from([1.0, 0.1, 1e-170, 1e20, 1e200]),
       outlier=st.booleans())
def test_integer_lattices_match_kernel_and_double_loop(values, lattice, offsets,
                                                       scale, outlier):
    y = scale * np.array(values, dtype=float)
    if outlier:
        y = np.append(y, -1e20)
    queries = [scale * k / 2.0 for k in lattice]
    for index, steps in offsets:
        x = y[index % len(y)]
        for _ in range(abs(steps)):
            x = np.nextafter(x, np.sign(steps) * np.inf)
        queries.append(x)
    line_oracle_agrees(y, np.array(queries))


TIE_SAMPLES = {
    "n3": [0.0, 1.0, 1.0],
    "copies": [2.0, 2.0, 2.0, -1.0, 0.0, 2.0, 5.0, 5.0],
    "lattice": [-3.0, 0.0, 0.0, 1.0, 1.0, 1.0, 4.0, -3.0, 2.0, 0.0, 1.0],
    "near-ties": neighbours([1.0, 3.0], steps=1).tolist() + [2.0, -1e20],
    "tiny": (1e-170 * np.array([1.0, 2.0, 2.0, 3.0, 0.0])).tolist(),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(TIE_SAMPLES))
def test_self_depth_on_the_line_matches_double_loop(case, threads):
    sample = Sample(TIE_SAMPLES[case], LINE)
    field = self_depth_field(sample, threads=threads)
    assert field.values.tolist() == [
        empirical_lens_depth(x, sample, exclude=e) for e, x in enumerate(sample.points)]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(TIE_SAMPLES))
def test_loo_on_the_line_matches_double_loop(case, threads):
    sample = Sample(TIE_SAMPLES[case], LINE)
    y = sample.points[:, 0]
    queries = np.concatenate([neighbours(y[:3], steps=1), [0.5, 10.0, -0.0]])
    values = loo_depth_against(queries, sample, threads=threads)
    assert values.tolist() == [
        empirical_lens_depth(x, sample, exclude=first_equal(x, sample)) for x in queries]


def test_line_entry_points_build_no_distance_matrix(rng):
    y = rng.standard_normal(400)
    sample = Sample(y, LINE)
    batch_depth(np.arange(-3.0, 3.005, 0.01), sample)
    self_depth_field(sample)
    loo_depth_against(np.concatenate([y[:20], rng.standard_normal(20)]), sample)
    assert sample._cache is None


def test_line_batch_depth_scales_past_any_distance_matrix(rng):
    # The n x n sample matrix would take 320 GB.
    n = 200_000
    y = rng.standard_normal(n)
    sample = Sample(y, LINE)
    grid = np.arange(-3.0, 3.005, 0.01)
    field = batch_depth(grid, sample, threads=2)
    assert sample._cache is None
    assert len(field.values) == 601
    for i in (0, 300, 450, 600):
        below = int((y < grid[i]).sum())
        assert field.counts[i] == below * (n - below)


def weighted_value_counts(queries, sample_values):
    """Float-predicate counts over distinct values from full matrices:
    pairs of distinct values weighted by the product of multiplicities,
    pairs of equal values covering x only at distance 0."""
    vals, mult = np.unique(sample_values, return_counts=True)
    dmat = LINE.pairwise(vals[:, None])
    dq = LINE.cross_matrix(np.asarray(queries, dtype=float)[:, None], vals[:, None])
    upper = np.triu(np.ones_like(dmat, dtype=bool), 1)
    weights = np.where(upper, np.outer(mult, mult), 0)
    covered = np.maximum(dq[:, :, None], dq[:, None, :]) <= dmat
    return ((covered * weights).sum(axis=(1, 2))
            + (dq <= 0.0) @ (mult * (mult - 1) // 2))


def test_guarded_rows_build_no_sample_matrix(rng):
    # The n x n sample matrix would take 320 GB; guarded rows are counted
    # from one distance row per distinct sample value instead.
    n = 200_000
    y = rng.integers(-300, 301, n).astype(float)
    sample = Sample(y, LINE)
    queries = np.array([np.nextafter(y[0], np.inf), np.nextafter(y[1], -np.inf),
                        0.5, y[2]])
    _, rows = _line_counts(queries, sample)
    assert rows.tolist() == [0, 1]
    field = batch_depth(queries, sample)
    assert sample._cache is None
    assert field.counts.tolist() == weighted_value_counts(queries, y).tolist()
