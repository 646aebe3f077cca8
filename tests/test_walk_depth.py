"""The depth-order walk: each query's count is read off every B-th suffix
bitset of the sorted sample rows, plus one rank comparison per position
in front of it, instead of comparing every pair.  Every count must equal
the pairwise kernel's (`conftest._count_block`) bit for bit, and the
double loop's on small samples, on every metric, at the 64-bit word and
stride boundaries, on tie-heavy, duplicate, overflowing and
near-antipodal inputs, at every stride and at any thread count."""

import tracemalloc

import numpy as np
import pytest

from lensdepth import depth
from lensdepth.analysis import depth_depth
from lensdepth.depth import (
    Sample,
    _walk_block,
    _walk_table,
    batch_depth,
    empirical_lens_depth,
    loo_depth_against,
    pooled_depth,
    self_depth_field,
)
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace, StiefelSpace

from conftest import _count_block, random_frames, random_tree, random_unit_vectors

SIZES = [3, 63, 64, 65, 127, 128, 129]


def table_bytes(n, stride=1):
    return n * (-(-n // stride) + 1) * -(-n // 64) * 8


def normal(rng, n):
    return EuclideanSpace(3), rng.standard_normal((n, 3))


def integers(rng, n):
    """Integer points in a 5 x 5 square: every distance is tied with many."""
    return EuclideanSpace(2), rng.integers(-2, 3, size=(n, 2)).astype(float)


def huge(rng, n):
    """Coordinates near +-1e300: squared differences overflow, so many
    distances are inf, and equal coordinates give exact zeros."""
    return EuclideanSpace(2), rng.integers(-2, 3, size=(n, 2)) * 1e300


def antipodal(rng, n):
    """Points within 1e-9 of the two poles: arcs near 0 and near pi."""
    pole = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    pts = np.column_stack([1e-9 * rng.standard_normal((n, 2)), pole])
    pts[::7, :2] = 0.0
    return SphereSpace(3), pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sphere(rng, n):
    return SphereSpace(3), random_unit_vectors(rng, n, 3)


def chordal(rng, n):
    return StiefelSpace(3, 2, "chordal"), random_frames(rng, n)


def procrustes(rng, n):
    """Frames, their negatives and their column swaps: Procrustes distances
    between them are 0 or a few ulps."""
    frames = random_frames(rng, n)
    frames[1::3] = -frames[::3][:len(frames[1::3])]
    frames[2::3] = frames[::3][:len(frames[2::3]), :, ::-1]
    return StiefelSpace(3, 2, "procrustes"), frames


def trees(rng, n):
    """Trees on five leaves with edges of length 1 or 2: 15 topologies and
    few lengths, so many equal distances."""
    labels = tuple("ABCDE")
    out = np.empty(n, dtype=object)
    out[:] = [random_tree(labels, rng).with_lengths(rng.integers(1, 3, 2).astype(float),
                                                    rng.integers(1, 3, 5).astype(float))
              for _ in range(n)]
    return BHVSpace(labels), out


CASES = {"normal": normal, "integers": integers, "huge": huge, "antipodal": antipodal,
         "sphere": sphere, "chordal": chordal, "procrustes": procrustes, "trees": trees}


def make(name, n, m, seed=0):
    """A sample of n points with duplicates, and m queries of which some
    are sample points."""
    rng = np.random.default_rng([seed, n, m, len(name)])
    space, pts = CASES[name](rng, n + m)
    sample_pts, queries = pts[:n].copy(), pts[n:].copy()
    sample_pts[n // 2:n // 2 + n // 8] = sample_pts[0]
    queries[::5] = sample_pts[rng.integers(0, n, len(queries[::5]))]
    return Sample(sample_pts, space), space.coerce_points(queries)


@pytest.fixture
def kernels(monkeypatch):
    """Records the table stride of each walk."""
    ran = []

    def counted(*args, kernel=depth._walk_block):
        ran.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(depth, "_walk_block", counted)
    return ran


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_equals_the_pair_kernel(kernels, monkeypatch, name, n):
    """With every suffix in the table, and with every 2nd, 4th and 64th up
    to the first power of two >= n, forced by the budget: n = 63..65 and
    127..129 are B - 1, 0 and 1 mod B for each.  Strided counts run on
    one block of query rows per thread."""
    sample, queries = make(name, n, 40)
    dmat = sample.distance_matrix
    walk = _walk_table(dmat)
    dq = sample.space.cross_matrix(queries, sample.points)
    want, own = _count_block(dq, dmat), _count_block(dmat, dmat)
    assert np.array_equal(_walk_block(dq, dmat, *walk), want)
    assert np.array_equal(_walk_block(dmat, dmat, *walk), own)
    for stride in (s for s in (2, 4, 64) if s < 2 * n):
        monkeypatch.setattr(depth, "_WALK_TABLE", table_bytes(n, stride))
        kernels.clear()
        for threads in (1, 2, 3):
            assert np.array_equal(depth._matrix_counts(dq, dmat, threads), want)
            assert np.array_equal(depth._matrix_counts(dmat, dmat, threads), own)
        assert set(kernels) == {stride}


@pytest.mark.parametrize("block", [1, 300, 1 << 20])
def test_walk_blocks_do_not_change_counts(monkeypatch, block):
    """Blocks of one query row, of a few, and one block for all of them,
    at strides 1 and 4."""
    monkeypatch.setattr(depth, "_BLOCK_ENTRIES", block)
    sample, queries = make("normal", 65, 40)
    dmat = sample.distance_matrix
    dq = sample.space.cross_matrix(queries, sample.points)
    want = _count_block(dq, dmat)
    assert np.array_equal(depth._matrix_counts(dq, dmat, 1), want)
    monkeypatch.setattr(depth, "_WALK_TABLE", table_bytes(65, 4))
    assert np.array_equal(depth._matrix_counts(dq, dmat, 2), want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_strided_entry_points_equal_the_pair_kernel(kernels, monkeypatch, name):
    """Every entry point that counts against a sample matrix, at strides
    2, 4 and 64 and at any thread count."""
    n = 65
    sample, queries = make(name, n, 30)
    other = Sample(queries, sample.space)
    pooled = np.concatenate([sample.points, queries])
    plain = _oracle(queries, sample)
    own = _count_block(sample.distance_matrix, sample.distance_matrix) - (n - 1)
    equal = depth._sample_index(queries, sample) >= 0
    loo = np.where(equal, (plain - (n - 1)) / ((n - 1) * (n - 2) // 2), plain / (n * (n - 1) // 2))
    pooled_want = [_oracle(pooled, sample), _oracle(pooled, other)]
    for stride in (2, 4, 64):
        monkeypatch.setattr(depth, "_WALK_TABLE", table_bytes(n, stride))
        for threads in (1, 2, 3):
            kernels.clear()
            assert np.array_equal(batch_depth(queries, sample, threads=threads).counts, plain)
            assert np.array_equal(self_depth_field(sample, threads=threads).counts, own)
            assert np.array_equal(loo_depth_against(queries, sample, threads=threads), loo)
            assert set(kernels) == {stride}
            kernels.clear()
            fields = pooled_depth(sample, other, threads=threads)
            for field, want in zip(fields, pooled_want):
                assert np.array_equal(field.counts, want)
            assert kernels == [stride] * threads + [depth._walk_stride(other.n)] * threads


def test_the_cases_are_hostile():
    sample, _ = make("huge", 65, 40)
    assert np.isinf(sample.distance_matrix).mean() > 0.3
    sample, _ = make("antipodal", 65, 40)
    assert sample.distance_matrix.max() > np.pi - 1e-8
    for name in ("integers", "trees", "procrustes"):
        sample, _ = make(name, 65, 40)
        dmat = sample.distance_matrix
        assert len(np.unique(dmat)) < dmat.size // 8, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_equals_the_double_loop(kernels, monkeypatch, name):
    """With every suffix in the table, and with every fourth."""
    sample, queries = make(name, 12, 130)
    for stride in (1, 4):
        monkeypatch.setattr(depth, "_WALK_TABLE", table_bytes(12, stride))
        kernels.clear()
        values = batch_depth(queries, sample).values
        for i in range(0, len(queries), 13):
            assert values[i] == empirical_lens_depth(queries[i], sample)
        loo = self_depth_field(sample).values
        for e in range(0, sample.n, 5):
            assert loo[e] == empirical_lens_depth(sample.points[e], sample, exclude=e)
        assert set(kernels) == {stride}


@pytest.mark.parametrize("m", [1, 2, 127])
def test_few_queries_walk_too(kernels, m):
    sample, queries = make("sphere", 65, m)
    want = _oracle(queries, sample)
    assert np.array_equal(batch_depth(queries, sample).counts, want)
    assert set(kernels) == {1}


@pytest.mark.parametrize("spare", [0, -1])
def test_table_budget(kernels, monkeypatch, spare):
    """The whole table at its exact size, every second suffix one byte
    short of it."""
    sample, queries = make("integers", 129, 150)
    monkeypatch.setattr(depth, "_WALK_TABLE", table_bytes(129) + spare)
    assert np.array_equal(batch_depth(queries, sample).counts, _oracle(queries, sample))
    assert set(kernels) == {1 if spare == 0 else 2}


def test_budget_fits_the_documented_sizes():
    assert table_bytes(500) == 16_032_000
    strides = {n: depth._walk_stride(n) for n in (500, 640, 641, 1000, 2000)}
    assert strides == {500: 1, 640: 1, 641: 2, 1000: 4, 2000: 32}
    for n, stride in strides.items():
        assert table_bytes(n, stride) <= depth._WALK_TABLE
        assert stride == 1 or table_bytes(n, stride // 2) > depth._WALK_TABLE


def _oracle(queries, sample):
    dq = sample.space.cross_matrix(queries, sample.points)
    return _count_block(dq, sample.distance_matrix)


@pytest.mark.parametrize("name", ["normal", "integers", "huge", "antipodal", "procrustes"])
def test_counts_do_not_depend_on_threads(kernels, name):
    sample, queries = make(name, 70, 200)
    big = Sample(np.concatenate([sample.points, queries]), sample.space)
    plain = _oracle(queries, sample)
    own = _count_block(big.distance_matrix, big.distance_matrix) - (big.n - 1)
    loo = loo_depth_against(queries, sample)
    for threads in (1, 2, 3):
        assert np.array_equal(batch_depth(queries, sample, threads=threads).counts, plain)
        assert np.array_equal(self_depth_field(big, threads=threads).counts, own)
        assert np.array_equal(loo_depth_against(queries, sample, threads=threads), loo)
    assert set(kernels) == {1}


def test_query_rows_equal_to_sample_points_come_from_the_sample_matrix(monkeypatch):
    sample, queries = make("sphere", 65, 150)
    equal = depth._sample_index(queries, sample) >= 0
    assert 0 < equal.sum() < len(queries)
    want = _oracle(queries, sample)
    measured = []
    cross = type(sample.space).cross_matrix

    def counted(self, ps, qs):
        measured.append(len(ps))
        return cross(self, ps, qs)

    monkeypatch.setattr(SphereSpace, "cross_matrix", counted)
    assert np.array_equal(batch_depth(queries, sample).counts, want)
    assert measured == [int((~equal).sum())]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ddplot_groups_each_count_once(kernels, threads):
    g0, _ = make("sphere", 150, 1, seed=1)
    g1, _ = make("sphere", 140, 1, seed=2)
    records = depth_depth(g0, g1, threads=threads)
    assert kernels == [1] * threads * 2     # one block per thread
    own0 = self_depth_field(g0).values
    own1 = self_depth_field(g1).values
    other0 = _oracle(g0.points, g1) / (g1.n * (g1.n - 1) // 2)
    other1 = _oracle(g1.points, g0) / (g0.n * (g0.n - 1) // 2)
    assert [r.depth0 for r in records] == list(own0) + list(other1)
    assert [r.depth1 for r in records] == list(other0) + list(own1)


def peak_beyond_the_query_matrix(rng, n, m):
    """The tracemalloc peak of one sphere count of m queries against n
    points, less the m x n query matrix; the sample matrix is built first."""
    sample = Sample(random_unit_vectors(rng, n, 3), SphereSpace(3))
    sample.distance_matrix
    queries = random_unit_vectors(rng, m, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batch_depth(queries, sample)
        return tracemalloc.get_traced_memory()[1] - start - 8 * m * n
    finally:
        tracemalloc.stop()


def test_memory_is_one_table_plus_the_query_rows():
    """Beyond the distance matrices, a count allocates one table and a few
    arrays of m x n words: never a second table or one of n^3 bits.  Past
    stride 1 the table fills the budget; the sorted rows and their int32
    order add 12 n^2 bytes, and filling one position per chunk of B at a
    time a few arrays of n^2 / B words."""
    rng = np.random.default_rng(5)
    n, m = 500, 1000
    assert peak_beyond_the_query_matrix(rng, n, m) <= table_bytes(n) + 3 * 8 * m * n
    for n, m in ((1000, 500), (2000, 200)):
        stride = depth._walk_stride(n)
        assert stride > 1
        peak = peak_beyond_the_query_matrix(rng, n, m)
        fill = 4 * 8 * n * n // stride
        assert peak <= depth._WALK_TABLE + 12 * n * n + fill + 3 * 8 * m * n, (n, m, peak)


@pytest.mark.parametrize("name", sorted(CASES))
def test_ddplot_pooled_records_equal_the_double_loop(name):
    """Each point is left out of its own group only: a group 1 point
    equal to a group 0 point keeps its plain depth against group 0."""
    g0, pts1 = make(name, 9, 8)
    pts1[1] = g0.points[2]
    g1 = Sample(pts1, g0.space)
    points = np.concatenate([g0.points, g1.points])
    groups = [0] * g0.n + [1] * g1.n
    want = [(empirical_lens_depth(x, g0, exclude=i if g == 0 else None),
             empirical_lens_depth(x, g1, exclude=i - g0.n if g == 1 else None))
            for i, (x, g) in enumerate(zip(points, groups))]
    assert [(r.depth0, r.depth1) for r in depth_depth(g0, g1)] == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_pooled_matrix_equals_pairwise(name):
    """The pooled points' matrix, from which each sample's counts and the
    psi curves of `gamma` and `order` are read, holds each sample's own
    matrix on its diagonal and the cross matrix off it, bit for bit."""
    sx, pts = make(name, 40, 33)
    sy = Sample(pts, sx.space)
    fx, fy = pooled_depth(sx, sy)
    dmat = fx.distance_matrix
    assert fy.distance_matrix is dmat
    x, y = slice(None, sx.n), slice(sx.n, None)
    cross = sx.space.cross_matrix(sx.points, sy.points)
    for block, want in ((dmat[x, x], sx.distance_matrix), (dmat[y, y], sy.distance_matrix),
                        (dmat[x, y], cross), (dmat[y, x], cross.T)):
        assert np.array_equal(block.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("small_table", [False, True], ids=["walk", "both-kernels"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_pooled_counts_equal_batch_depth(kernels, monkeypatch, name, small_table):
    """The counts read off strided blocks of the pooled matrix equal those
    of `batch_depth` on the pooled points, at any thread count; with the
    table budget between the two sample sizes, the walk keeps every
    suffix of one sample and every second suffix of the other."""
    sx, pts = make(name, 70, 65)
    sy = Sample(pts, sx.space)
    pooled = np.concatenate([sx.points, sy.points])
    want = [batch_depth(pooled, sample).counts for sample in (sx, sy)]
    kernels.clear()
    if small_table:
        monkeypatch.setattr(depth, "_WALK_TABLE", table_bytes(65))
    for threads in (1, 2, 3):
        fields = pooled_depth(sx, sy, threads=threads)
        assert [f.n for f in fields] == [sx.n, sy.n]
        for field, counts in zip(fields, want):
            assert np.array_equal(field.counts, counts)
    assert set(kernels) == ({1, 2} if small_table else {1})
