"""Empirical lens depth: the pairwise-count estimator, batch
evaluation, and population oracles.

The depth of a query point is the fraction of unordered sample pairs
whose lens (intersection of the two closed balls centred at the pair
with radius equal to their distance) contains it.  `empirical_lens_depth`
is the direct double loop over pairs.  The counts of `batch_depth`,
`self_depth_field`, `loo_depth_against` and `pooled_depth` match it bit
for bit at any thread count.  Leave-one-out values are read off the
counts: a point equal by value to a sample point drops the n - 1 pairs
containing that point, all of which cover it.  `batch_depth` takes one
of three paths:

- In R^1 the lens of (a, b) is the segment between them, so the count
  comes from one sort of the sample and two binary searches per query,
  in O((m + n) log n) with no distance matrix.  A rounding guard finds
  the rows where the float predicate can disagree with the segment rule
  (a near tie with a distinct sample value, or magnitudes whose squares
  go subnormal or overflow) and counts only those pairwise, against one
  distance row per distinct sample value, so no n x n matrix is built.
  `threads` has nothing to split there.
- On a `LatticeGrid` in R^d, d >= 2, `_lattice_counts` rasterizes each
  lens row by row along the lattice's longest axis: the points of a row
  inside a lens form one index range, estimated from the chord, so no
  query matrix is built.  An end within the rounding band of
  `_chord_band` of a lattice index (about one incidence in 10^4 on
  normal samples) is settled by one float lens test at that index; where
  a lens's own band reaches 1/2 (see `_lattice_counts`) the float test
  runs along the whole row.  The count runs on the calling thread at any
  `threads`.
- Elsewhere the sample matrix is built, then the query matrix; a query
  equal by value to a sample point reads its row from the sample
  matrix.  `_walk_block` counts each query in depth order against every
  B-th suffix bitset of the sample rows' sort orders (`_walk_table`, built
  once per count, B the smallest power of two that fits it in
  `_WALK_TABLE`), plus one rank comparison per position in front of a
  stored suffix.  `_matrix_counts` runs it on one contiguous block of
  query rows per thread.  `pooled_depth` measures one matrix of the
  points of two samples and counts each sample from its blocks of it.

A `DepthField` carries the lattice it was counted on, if any, and the
distances among its points when the count built them; only the third
path builds them, so a field on the line never carries a matrix.

`population_ld_mc` counts every point of a set against one set of random
pairs, one indicator row at a time; `p2_matrix` reads its pair moments
off the same indicators (`_coverage_batches`).

`thread_map` is the package's one thread pool, which the walk's query
blocks use, and `row_blocks` its one row-block helper.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .metrics import EuclideanSpace, MetricSpace


class DepthError(ValueError):
    """Invalid input to a depth computation."""


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


class Sample:
    """An indexed point set in a metric space with a cached distance matrix.

    The points are validated once, here; the matrix is computed on first
    use by `space.pairwise`, so the cache always agrees with per-pair
    recomputation exactly.
    """

    def __init__(self, points, space: MetricSpace):
        self.points = space.coerce_points(points)
        self.space = space
        self._cache = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def distance_matrix(self) -> np.ndarray:
        if self._cache is None:
            self._cache = self.space.pairwise(self.points)
        return self._cache

    def __repr__(self):
        return f"Sample(n={self.n}, space={self.space!r})"


@dataclasses.dataclass(frozen=True)
class DepthField:
    """Depth values over an evaluation point set.

    `values` = `counts / C(n', 2)` where counts are the exact numbers of
    covering pairs among the n' sample points counted (n, or n - 1
    leave-one-out), so every value is a multiple of 1/C(n', 2).  `grid`
    is the `LatticeGrid` whose points are `points`, if the field was
    counted on one, and `distance_matrix` the distances among `points`
    when the count built them (the sample's own points off the line).
    """

    points: object
    values: np.ndarray
    n: int
    space: MetricSpace
    counts: np.ndarray | None = None
    grid: object = dataclasses.field(default=None, repr=False, compare=False)
    distance_matrix: np.ndarray | None = dataclasses.field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.values)

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def leave_out(self, rows) -> np.ndarray:
        """The values, with each point of the boolean mask `rows` left out
        of the sample.  Such a point equals a sample point by value, so its
        distances are that point's bit for bit (see `metrics`) and every
        pair containing that point covers it: its count drops n - 1 pairs."""
        n = self.n
        return np.where(rows, (self.counts - (n - 1)) / _pair_count(n - 1), self.values)


def empirical_lens_depth(x, sample: Sample, exclude: int | None = None) -> float:
    """Depth of `x` by the direct double loop over all sample pairs.

    Ties on ball boundaries count as inside (closed balls, no tolerance).
    `exclude` drops every pair involving that sample index, for
    leave-one-out evaluation; the denominator shrinks accordingly.
    """
    n = sample.n
    eff = n if exclude is None else n - 1
    if eff < 2:
        raise DepthError(f"need at least 2 sample points, have {eff}")
    space = sample.space
    x = space.coerce_point(x)
    pts = sample.points
    count = 0
    for i in range(n):
        if i == exclude:
            continue
        pi = pts[i]
        dxi = space.distance(x, pi)
        for j in range(i + 1, n):
            if j == exclude:
                continue
            r = space.distance(pi, pts[j])
            if dxi <= r and space.distance(x, pts[j]) <= r:
                count += 1
    return count / _pair_count(eff)


# Bytes one walk table may take (see `_walk_stride`).
_WALK_TABLE = 1 << 25
# Entries per block of `row_blocks`: bounds the temporaries of the walk per
# thread, of the Hausdorff distance and of nearest indices.
_BLOCK_ENTRIES = 1 << 16


def row_blocks(count: int, width: int):
    """Consecutive slices of `count` rows, each small enough that its
    rows of `width` entries hold about _BLOCK_ENTRIES entries (one row at
    least)."""
    size = max(1, _BLOCK_ENTRIES // max(width, 1))
    return (slice(lo, lo + size) for lo in range(0, count, size))


def _bits(ids: np.ndarray) -> np.ndarray:
    return np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))


def _walk_stride(n: int) -> int:
    """The smallest power of two B, at most the first one >= n, whose walk
    table of n(ceil(n/B) + 1) bitsets of ceil(n/64) words fits in
    _WALK_TABLE bytes: 1 up to n = 640, 4 at 1,000 and 32 at 2,000."""
    stride = 1
    while stride < n and n * (-(-n // stride) + 1) * -(-n // 64) * 8 > _WALK_TABLE:
        stride *= 2
    return stride


def _walk_table(dmat: np.ndarray):
    """The int32 order that sorts each row of the sample matrix
    ascending, the walk's table and its stride B.  With c =
    ceil(n/B), table row q * (c + 1) + t is the bitset, in ceil(n/64)
    words, of the sample indices at sorted positions (c - t) * B on in
    row q: every B-th suffix and the empty one.  A running sum of the
    chunks of B positions is their union; it is taken in place.  The
    first position of each chunk is stored into zeros, each later one
    or-ed in, so at B = 1 every bit is a plain store.
    """
    n, stride = len(dmat), _walk_stride(len(dmat))
    chunks = -(-n // stride)
    order = np.argsort(dmat, axis=1).astype(np.int32)
    table = np.zeros((n, chunks + 1, -(-n // 64)), dtype=np.uint64)
    for j in range(stride):           # one position per chunk at a time
        ids = order[:, j::stride]
        at = np.arange(n)[:, None], chunks - np.arange(ids.shape[1]), ids >> 6
        if j:
            table[at] |= _bits(ids)
        else:
            table[at] = _bits(ids)
    np.cumsum(table, axis=1, out=table)
    return order, table.reshape(n * (chunks + 1), -1), stride


def _walk_block(dq: np.ndarray, dmat: np.ndarray, order: np.ndarray, table: np.ndarray,
                stride: int) -> np.ndarray:
    """Covering-pair counts of the query rows `dq` by a walk in depth
    order over `_walk_table(dmat)`, equal to the float test on every pair.

    Rank the sample by the query's distances a.  For a pair whose lower
    ranked point is p and the other q, a_p <= a_q, so the float test
    max(a_p, a_q) <= d(p, q) is a_q <= d(q, p); any order that sorts a
    will do, as either point of a tie may come first.  The p passing it
    are a suffix of row q sorted, from the first entry >= a_q, so the
    count is the sum over q of the points of that suffix ranked before
    q: the bits the first stored suffix inside it shares with them, and
    one comparison of two ranks from the same sort for each of the fewer
    than B positions in front of it.  Only integer operations follow the
    binary searches, so no thread count or block size changes a count.
    Distances between valid points are never nan, which would sort last.
    """
    m, n = dq.shape
    ids = np.arange(n)
    last = (ids + 1) * (len(table) // n) - 1       # each row's empty suffix
    start = np.empty((m, n), dtype=np.int32)
    for q in range(n):
        col = dq[:, q]
        keys = np.argsort(col)          # sorted keys keep the searches' branches predictable
        start[keys, q] = np.searchsorted(dmat[q, order[q]], col[keys], "left")
    onehot = np.zeros((n, table.shape[1]), dtype=np.uint64)
    onehot[ids, ids >> 6] = _bits(ids)
    counts = np.empty(m, dtype=np.int64)
    for rows in row_blocks(m, n):
        rank = np.argsort(dq[rows], axis=1)
        out, s = counts[rows], start[rows]
        first = -(-s // stride)         # the first stored suffix inside the true one
        stored = last - first
        for a in row_blocks(len(rank), onehot.size):
            r = rank[a]
            bit = np.take(onehot, r, axis=0)
            before = np.cumsum(bit, axis=1)
            before -= bit               # the points ranked before each one
            shared = np.take(table, np.take_along_axis(stored[a], r, axis=1), axis=0)
            shared &= before
            out[a] = np.bitwise_count(shared).sum(axis=(1, 2), dtype=np.int64)
        if stride > 1:                  # the positions in front of the stored suffix
            end = np.minimum(first * stride, n)
            place = np.empty_like(rank)             # each sample point's place in the sort
            at = np.arange(len(rank))[:, None]
            place[at, rank] = ids
            for j in range(int((end - s).max())):   # one offset for the whole block at a time
                pos = s + j
                point = order.take(ids * n + np.minimum(pos, n - 1))      # order[q, pos]
                out += ((pos < end) & (place.take(at * n + point) < place)).sum(axis=1)
    return counts


def thread_map(fn, items, threads: int = 1) -> list:
    """`[fn(item) for item in items]` on up to `threads` worker threads,
    never more than the core count.

    Results come back in item order, so whatever a caller aggregates from
    them is independent of `threads`.
    """
    items = list(items)
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(workers) as ex:
        return list(ex.map(fn, items))


# On the line the float predicate max(d(x,a), d(x,b)) <= d(a,b) counts
# every pair whose segment holds x: subtraction, squaring and sqrt are
# monotone.  It can also count a pair that misses x, but only if rounding
# collapses d(x,b) onto d(a,b): when x lies within a few ulps of its
# nearest distinct sample value, when that gap is so small that its square
# goes subnormal, or when magnitudes are so large that squares overflow.
_GUARD_ULPS = 8 * np.finfo(float).eps
_GUARD_TINY = 2.0 ** -500
_GUARD_HUGE = 2.0 ** 500


def on_line(space: MetricSpace) -> bool:
    """Whether `space` is the line, R^1, where counts take the sort path."""
    return isinstance(space, EuclideanSpace) and space.dim == 1


def _line_counts(x: np.ndarray, sample: Sample):
    """Covering-pair counts of the values `x` against a sample on the
    line, and the indices of the rows the rounding guard flags.

    A pair covers x iff it straddles x or has an endpoint equal to it:
    below*above + eq*(n - eq) + C(eq, 2).  Flagged rows must be recounted
    by the pairwise kernel to match the float predicate.
    """
    y = np.sort(sample.points[:, 0])
    n = len(y)
    lo = np.searchsorted(y, x, "left")
    hi = np.searchsorted(y, x, "right")
    eq = hi - lo
    counts = lo * (n - hi) + eq * (n - eq) + eq * (eq - 1) // 2
    with np.errstate(over="ignore"):
        gap = np.minimum(np.where(lo > 0, x - y[np.maximum(lo - 1, 0)], np.inf),
                         np.where(hi < n, y[np.minimum(hi, n - 1)] - x, np.inf))
        scale = np.abs(x) + max(abs(y[0]), abs(y[-1]))
    guard = (gap <= _GUARD_ULPS * scale) | (gap < _GUARD_TINY) | (scale > _GUARD_HUGE)
    return counts, np.flatnonzero(guard)


# Lens-row incidences handled per block of the lattice count; bounds its
# temporaries at a few dozen arrays of this length.
_LATTICE_BLOCK = 1 << 14
# The unit roundoff of doubles, their smallest subnormal, and the magnitude
# inside which `_chord_band` holds.
_U = 2.0 ** -53
_TINY = 2.0 ** -1074
_SAFE = 2.0 ** 500


def _axis_ranges(values: np.ndarray, coords: np.ndarray, dmat: np.ndarray):
    """Index ranges [lo, hi) of the sorted lattice axis `values` outside
    which ball (i, dmat[i, j]) misses every row, for every ordered pair.

    The distance to a lattice point is at least the root of its term on
    this axis alone (a float sum of squares never falls below one of its
    terms), and that root is nonincreasing and then nondecreasing along
    the axis, so the indices where it is within the radius are one range,
    found by two binary searches per centre.
    """
    root = np.sqrt(np.square(coords[:, None] - values))
    mid = np.searchsorted(values, coords)
    lo = np.empty(dmat.shape, dtype=np.intp)
    hi = np.empty(dmat.shape, dtype=np.intp)
    for i, p in enumerate(mid):
        lo[i] = p - np.searchsorted(root[i, :p][::-1], dmat[i], "right")
        hi[i] = p + np.searchsorted(root[i, p:], dmat[i], "right")
    return lo, hi


def _chord_band(d: int, largest: float, radius: float, step: float, root=0.0):
    """Half-width, in units of the row's step, of the band around an
    estimated chord end outside which the float lens test agrees with the
    estimate, on a lattice in R^d where the lattice's and the sample's
    coordinates are at most `largest` in magnitude and no ball's radius
    exceeds `radius`, for chords of computed half length `root` (an array
    or a number); inf where the bound below does not hold.

    Write u = 2^-53, M = largest, R = radius and h = step, and require
    M, R, h, M/h, R/h <= 2^500 and h >= 2^-500: no square, sum or
    quotient of the count then overflows, and one that goes subnormal is
    off by at most 2^-1075.  Take a ball (a, r), r <= R, and a row whose
    other axes' squared differences (exact, of the stored floats) sum to
    S.  The row's values are x_t = fl(x_0 + fl(t h)) (`expand_range`).
    In index units its exact ends are e = c +- H, with c = (a - x_0)/h
    and H = sqrt(max(r^2 - S, 0))/h.  To first order in u:

    1. |x_t - x_0 - t h| <= 3 u M, so |a - x_t|/h is within z = 3 u M/h
       of |c - t|.
    2. The float test sums d rounded squares of rounded differences, so
       it is within (d + 2) u G + d 2^-1075 of the exact squared distance
       G, and passes iff that sum is at most r^2 (1 + u)^2.  It can part
       from G <= r^2 only where |G - r^2| <= p = (d + 6) u R^2 + d 2^-1074,
       and G - r^2 = (|a - x_t| - h H)(|a - x_t| + h H) (above |a - x_t|^2
       where S > r^2): at t within y = min(sqrt(P), P/H) + z of an exact
       end, P = p/h^2.
    3. `centre` is within 4 u M/h of c.  `reach` and `scaled` are within
       3 u and (d + 3) u of r^2/h^2 and S/h^2, and their difference rounds
       once more, so w = max(reach - scaled, 0) is within E = (d + 9) u
       (R/h)^2 + (d + 2) 2^-1074 max(1, h^-2) of H^2 (for S > r^2 too):
       H^2 >= w - E, and sqrt(w) is within |w - H^2|/(sqrt(w) + H) <=
       min(sqrt(E), E/sqrt(w)) of H.  Rounding adds u R/h to `half` and
       2 u M/h + u R/h to each computed end A = fl(centre +- half), so A
       is within x = 6 u M/h + 2 u R/h + min(sqrt(E), E/sqrt(w)) of its
       exact end.

    So the estimate, the exact test and the float test agree at every
    integer farther than max(x, y) from both exact ends, hence at every
    integer farther than 2x + y from both computed ends.  The band is a
    little over twice that bound, for the terms of second order in u:

        (32 u M + 10 u R)/h + 2.1 (2 min(sqrt(E), E/root)
            + min(sqrt(P), P/sqrt(max(root^2 - E, 0)))),

    which falls as `root` grows; at root = 0 it holds for every chord.
    A - rint(A) is exact, so an end with |A - rint(A)| > band is trusted;
    an inf band trusts none, nor does an end that is inf or nan.
    """
    if not (largest <= _SAFE and radius <= _SAFE and 1 / _SAFE <= step <= _SAFE
            and max(largest, radius) / step <= _SAFE):
        return np.inf
    E = (d + 9) * _U * (radius / step) ** 2 + (d + 2) * _TINY * max(1.0, step ** -2)
    P = (d + 6) * _U * (radius / step) ** 2 + d * _TINY / step ** 2
    with np.errstate(divide="ignore"):
        chord = np.minimum(np.sqrt(E), np.divide(E, root))
        square = np.minimum(np.sqrt(P), P / np.sqrt(np.fmax(root * root - E, 0.0)))
    return (32 * _U * largest + 10 * _U * radius) / step + 2.1 * (2 * chord + square)


def _lattice_counts(grid, sample: Sample):
    """Covering-pair counts of every point of the lattice `grid` against a
    sample in R^d, d >= 2, and the number of (lens, row) incidences the
    float test settled.

    A row is a line of the lattice along its longest axis (the last of
    equally long ones).  `_root_sum_sq` sums squared coordinate
    differences from the left, monotone in each, and along a row only the
    row axis's term changes, falling and then rising; so a lens meets a
    row in one index range.  It is estimated from the tighter of the
    balls' chord ends c +- sqrt(r^2 - S) on each side (S the other axes'
    terms), from which the float test parts only at integers within the
    band delta of `_chord_band` of an end: the lattice's band holds a lens
    back, and its shorter chord's band then decides.  Below delta = 1/2
    only k = rint(E) can be wrong for an end E, and one float test at k
    settles it: the range starts at k if k is inside, else at k + 1, and
    stops after k if k is inside, else at k.  A finite band bounds M/h and
    R/h by 2^500, so every end is finite.  From delta = 1/2 on (an inf
    band, where squares may overflow or go subnormal and ends be nan; or,
    in 2-d, R/h past 2.4 10^6 and a chord under about 1.5 10^-14 (R/h)^2
    steps) the float test runs along the whole row.  Each range adds +1
    and -1 to a per-row difference array whose cumulative sum is the
    count, equal to the pairwise float test's on the full query matrix, in
    O(n^2 N / n_row) time outside whole-row tests and with no N x n
    matrix.  `_axis_ranges` skips rows a lens cannot meet.  The count runs
    on the calling thread: its numpy calls are too short for a second
    thread to gain more than it loses to the interpreter lock.
    """
    pts = sample.points
    n = len(pts)
    dmat = sample.distance_matrix
    values, shape = grid.axis_values, grid.shape
    axis = len(shape) - 1 - int(np.argmax(shape[::-1]))
    line, m, step = values[axis], shape[axis], grid.axes[axis][2]
    others = [k for k in range(len(shape)) if k != axis]
    row_shape = tuple(shape[k] for k in others)
    row_index = np.indices(row_shape).reshape(len(others), -1)
    i, j = np.triu_indices(n, 1)
    r = dmat[i, j]
    largest = max(float(np.abs(pts).max()), *(float(np.abs(v).max()) for v in values))
    radius = float(r.max())
    band = _chord_band(len(shape), largest, radius, step)
    with np.errstate(all="ignore"):
        # The other axes' terms for every row and sample point: their sum
        # from the left up to the row's axis, and each one after it.
        terms = [np.square(pts[:, k] - values[k][at, None]).ravel()
                 for k, at in zip(others, row_index)]
        before = np.zeros(len(terms[0]))
        for term in terms[:axis]:
            before = before + term
        after = terms[axis:]
        tail = np.square(pts[:, axis, None] - line)     # the row's axis terms
        # Per pair and other axis, the rows its lens can meet: a box.
        starts, sizes = [], []
        for k in others:
            lo, hi = _axis_ranges(values[k], pts[:, k], dmat)
            starts.append(np.maximum(lo[i, j], lo[j, i]))
            sizes.append(np.maximum(np.minimum(hi[i, j], hi[j, i]) - starts[-1], 0))
        # The chord estimate in units of the row's step.
        centre = (pts[:, axis] - line[0]) / step
        reach = r * r / (step * step)
        scaled = sum(after, before) / (step * step)
    strides = np.cumprod((1,) + row_shape[:0:-1])[::-1]
    span = np.prod(sizes, axis=0)
    width = row_index.shape[1] * (m + 1)

    def chord(pair, at, centre_idx):
        """The estimated ends of each ball's range on its row and its half
        length, in index units; `at` is the row's index times n."""
        half = np.sqrt(np.fmax(reach[pair] - scaled[at + centre_idx], 0.0))
        c = centre[centre_idx]
        return c - half, c + half, half

    def covered(pair, row, cols):
        """The float lens test of each incidence at the indices `cols` of
        its row, one row of them per incidence or one for all."""
        inside = True
        for c in (i[pair], j[pair]):
            at = row * n + c
            s = before[at, None] + tail[c[:, None], cols]
            for t in after:
                s = s + t[at, None]
            inside = inside & (np.sqrt(s) <= r[pair, None])
        return inside

    def settle(pair, row, low, high, delta):
        """The tally of the held lenses' ranges by the float test: one test
        per end where a lens's band is below 1/2, else the whole row."""
        lo, hi = np.empty((2, len(pair)), dtype=np.intp)
        near, far = np.flatnonzero(delta < 0.5), np.flatnonzero(~(delta < 0.5))
        # An index off the row is held at -1 or m and tested at the row's
        # nearest index: its clipped end is the same either way.
        k = np.clip(np.rint(np.stack([low[near], high[near]], axis=1)), -1, m).astype(np.intp)
        hit = covered(pair[near], row[near], np.clip(k, 0, m - 1))
        lo[near], hi[near] = k[:, 0] + ~hit[:, 0], k[:, 1] + hit[:, 1]
        for rows in (far[rows] for rows in row_blocks(len(far), m)):
            with np.errstate(all="ignore"):
                hit = covered(pair[rows], row[rows], np.arange(m))
            lo[rows] = hit.argmax(axis=1)
            hi[rows] = lo[rows] + hit.sum(axis=1)
        lo = np.clip(lo, 0, m)
        return tally(row, lo, np.clip(hi, lo, m))

    def estimate(first, stop):
        """Each incidence of the pairs first, ..., stop - 1 and a row, the
        tighter chord end of its lens on each side, the estimated range,
        whether both ends lie outside the lens's band, and that band."""
        pairs = np.arange(first, stop)
        counts = span[pairs]
        pair = np.repeat(pairs, counts)
        local = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
        row = 0
        for k in reversed(range(1, len(others))):
            local, at = np.divmod(local, sizes[k][pair])
            row = row + (starts[k][pair] + at) * strides[k]
        row = row + (starts[0][pair] + local) * strides[0]
        at = row * n
        with np.errstate(all="ignore"):
            # The tighter chord end on each side; nan stays nan.
            low, high, root = chord(pair, at, i[pair])
            low_b, high_b, root_b = chord(pair, at, j[pair])
            np.maximum(low, low_b, out=low)
            np.minimum(high, high_b, out=high)
            # From a band of 1/2 on, each lens takes its shorter chord's.
            delta = band if band < 0.5 else _chord_band(
                len(shape), largest, radius, step, np.minimum(root, root_b))
            sure = np.abs(low - np.rint(low)) > delta
            sure &= np.abs(high - np.rint(high)) > delta
            lo = np.clip(np.ceil(low), 0.0, m).astype(np.intp)
            hi = np.clip(np.floor(high) + 1.0, lo, m).astype(np.intp)
        return pair, row, low, high, lo, hi, sure, np.broadcast_to(delta, low.shape)

    def tally(row, lo, hi):
        offset = row * (m + 1)
        return (np.bincount(offset + lo, minlength=width)
                - np.bincount(offset + hi, minlength=width))

    # Blocks of pairs with about _LATTICE_BLOCK incidences each, summed
    # into one difference array.  Lenses within the band are held back and
    # settled together once about as many have gathered.
    ends = np.searchsorted(np.cumsum(span), np.arange(_LATTICE_BLOCK, span.sum(), _LATTICE_BLOCK))
    blocks = [(a, b) for a, b in zip(np.r_[0, ends], np.r_[ends, len(r)]) if b > a]
    diff, settled, held, waiting = np.zeros(width, dtype=np.int64), 0, [], 0
    for k, (first, stop) in enumerate(blocks):
        pair, row, low, high, lo, hi, sure, delta = estimate(first, stop)
        doubt = np.flatnonzero(~sure)
        lo[doubt] = hi[doubt] = 0                   # an empty range, for now
        diff += tally(row, lo, hi)
        held.append((pair[doubt], row[doubt], low[doubt], high[doubt], delta[doubt]))
        waiting += doubt.size
        if waiting >= _LATTICE_BLOCK or k == len(blocks) - 1:
            pair, row, low, high, delta = (np.concatenate(part) for part in zip(*held))
            diff += settle(pair, row, low, high, delta)
            settled, held, waiting = settled + len(pair), [], 0
    counts = np.cumsum(diff.reshape(-1, m + 1), axis=1)[:, :m].reshape(row_shape + (m,))
    return np.moveaxis(counts, -1, axis).ravel(), settled


def _distinct_row_counts(x: np.ndarray, sample: Sample) -> np.ndarray:
    """Covering-pair counts of the values `x` by the float predicate
    against a sample on the line without its distance matrix.

    Distances depend on values only, so pairs are counted over the
    distinct sample values weighted by multiplicity; each value's row is
    built as `pairwise` builds it, so memory stays O(len(x) * n).
    """
    space = sample.space
    vals, mult = np.unique(sample.points[:, 0], return_counts=True)
    vals = vals[:, None]
    dq = space.cross_matrix(x[:, None], vals)
    counts = (dq <= 0.0) @ (mult * (mult - 1) // 2)     # pairs of equal values
    for i in range(len(vals) - 1):
        row = space.dists_to(vals[i + 1:], vals[i])
        worst = np.maximum(dq[:, i, None], dq[:, i + 1:])
        counts += mult[i] * ((worst <= row) @ mult[i + 1:])
    return counts


def _matrix_counts(dq: np.ndarray, dmat: np.ndarray, threads: int) -> np.ndarray:
    """Covering-pair counts of the query rows `dq` against the sample
    matrix `dmat`, either of which may be a block of a larger matrix."""
    # One table per count, built before the threads start; they only read it.
    walk = _walk_table(dmat)
    blocks = np.array_split(dq, min(max(threads, 1), len(dq)))
    return np.concatenate(thread_map(lambda dq: _walk_block(dq, dmat, *walk), blocks, threads))


def _query_matrix(queries, sample: Sample) -> np.ndarray:
    """Distances from each query to each sample point; a query equal by
    value to a sample point takes that point's row of the sample matrix,
    bit for bit the row `cross_matrix` would compute (see `metrics`)."""
    match = _sample_index(queries, sample)
    new = np.flatnonzero(match < 0)
    if len(new) == len(queries):
        return sample.space.cross_matrix(queries, sample.points)
    dq = sample.distance_matrix[match]
    if len(new):
        dq[new] = sample.space.cross_matrix(queries[new], sample.points)
    return dq


def batch_depth(queries, sample: Sample, threads: int = 1) -> DepthField:
    """Empirical lens depth of every query point against `sample`;
    `queries` is a point set or a `LatticeGrid`, whose points are then the
    field's points and which the field then carries.  Queries that are
    `sample.points` itself have the sample matrix as their distances.

    Equals `empirical_lens_depth` per point exactly; the result is
    independent of `threads` (work is partitioned, each part computed in
    isolation, and counts are integers).
    """
    if sample.n < 2:
        raise DepthError(f"need at least 2 sample points, have {sample.n}")
    from .levelsets import LatticeGrid          # levelsets imports this module

    space, own = sample.space, queries is sample.points
    grid = queries if isinstance(queries, LatticeGrid) else None
    if grid is not None:
        queries = grid.points
        if not isinstance(space, EuclideanSpace) or space.dim != len(grid.axes):
            raise DepthError(f"{grid.describe()} is a point set of R^{len(grid.axes)}, "
                             f"not of {space!r}")
        if space.dim >= 2:
            return _field(queries, _lattice_counts(grid, sample)[0], sample, grid)
    if not own:
        queries = space.coerce_points(queries)
        if len(queries) == 0:
            raise DepthError("empty query set")
    if on_line(space):
        x = queries[:, 0]
        counts, rows = _line_counts(x, sample)
        if rows.size:
            counts[rows] = _distinct_row_counts(x[rows], sample)
        return _field(queries, counts, sample, grid)
    # The sample matrix comes first: its construction's temporaries are then
    # freed before the query matrix exists, which bounds peak memory.
    dmat = sample.distance_matrix
    if own:
        return _field(queries, _matrix_counts(dmat, dmat, threads), sample, matrix=dmat)
    return _field(queries, _matrix_counts(_query_matrix(queries, sample), dmat, threads),
                  sample, grid)


def _field(points, counts: np.ndarray, sample: Sample, grid=None, matrix=None) -> DepthField:
    return DepthField(points=points, values=counts / _pair_count(sample.n), n=sample.n,
                      space=sample.space, counts=counts, grid=grid, distance_matrix=matrix)


def pooled_depth(sample_x: Sample, sample_y: Sample, threads: int = 1):
    """The `batch_depth` fields of the pooled points, those of `sample_x`
    then those of `sample_y`, against each sample; off the line each
    carries the one matrix of the pooled points' distances.  A sample's
    matrix is its diagonal block and its query matrix its column block:
    the floats of `pairwise` and `cross_matrix` (see `metrics`)."""
    for sample in (sample_x, sample_y):
        if sample.n < 2:
            raise DepthError(f"need at least 2 sample points, have {sample.n}")
    space = sample_x.space
    pooled = Sample(np.concatenate([sample_x.points, space.coerce_points(sample_y.points)]), space)
    if on_line(space):
        return (batch_depth(pooled.points, sample_x, threads),
                batch_depth(pooled.points, sample_y, threads))
    dmat = pooled.distance_matrix
    x, y = slice(None, sample_x.n), slice(sample_x.n, None)
    return (_field(pooled.points, _matrix_counts(dmat[:, x], dmat[x, x], threads), sample_x,
                   matrix=dmat),
            _field(pooled.points, _matrix_counts(dmat[:, y], dmat[y, y], threads), sample_y,
                   matrix=dmat))


def self_depth_field(sample: Sample, threads: int = 1) -> DepthField:
    """Leave-one-out depth of each sample point within its own sample.

    Pairs involving the point itself are excluded (they would always
    cover it); the denominator is (n-1 choose 2).
    """
    n = sample.n
    if n < 3:
        raise DepthError(f"leave-one-out depth needs n >= 3, have {n}")
    field = batch_depth(sample.points, sample, threads)
    # Every pair containing index e covers x_e, so drop those n-1 pairs.
    counts = field.counts - (n - 1)
    return dataclasses.replace(field, values=counts / _pair_count(n - 1), counts=counts)


def loo_depth_against(points, sample: Sample, threads: int = 1) -> np.ndarray:
    """Depths of explicit points against `sample`, leave-one-out where a
    point is equal by value to a sample point (equal coordinates, or an
    equal tree); a distinct point at distance 0 keeps its plain depth.
    The pooled points of two samples, each left out of its own sample
    only, are read off `pooled_depth` with `DepthField.leave_out`.
    """
    if sample.n < 3:
        raise DepthError(f"leave-one-out depth needs n >= 3, have {sample.n}")
    field = batch_depth(points, sample, threads)
    return field.leave_out(_sample_index(field.points, sample) >= 0)


def _sample_index(points, sample: Sample) -> np.ndarray:
    """For each point, the index of a sample point equal to it by value
    (the same coordinates, 0.0 and -0.0 alike, or the same tree), or -1."""
    index = {key: e for e, key in enumerate(_value_keys(sample.points))}
    return np.array([index.get(key, -1) for key in _value_keys(points)], dtype=np.intp)


def _value_keys(points) -> list[tuple]:
    """One hashable key per point, equal exactly when the points are equal
    by value: its coordinates (0.0 and -0.0 alike), or its tree."""
    return [tuple(row) for row in points.reshape(len(points), -1).tolist()]


def population_ld_1d(x, cdf):
    """Closed-form population depth on the line: 2 F(x) (1 - F(x)).

    Valid for distributions with a continuous CDF; the result lies in
    [0, 1/2].  Accepts scalars or arrays if `cdf` is vectorized.
    """
    f = cdf(x)
    return 2.0 * f * (1.0 - f)


# Random pairs drawn per Monte Carlo batch; bounds the temporaries at a few
# arrays of this length, and one per query point in `p2_matrix`.
_MC_BATCH = 200_000


def _coverage_batches(points, sampler, pairs: int, rng: np.random.Generator):
    """Draw `pairs` independent pairs from `sampler` in batches of
    _MC_BATCH and yield, per batch, an iterator over `points` of the
    indicators that each pair's lens covers the point, built as it is
    consumed, which must happen before the next batch is drawn."""
    space = sampler.space
    done = 0
    while done < pairs:
        m = min(_MC_BATCH, pairs - done)
        y1 = sampler.draw(rng, m)
        y2 = sampler.draw(rng, m)
        r = space.paired_distances(y1, y2)
        yield ((space.dists_to(y1, p) <= r) & (space.dists_to(y2, p) <= r) for p in points)
        done += m


def population_ld_mc(points, sampler, pairs: int, seed: int = 0) -> np.ndarray:
    """Monte Carlo population depth of every point of a point set: the
    fraction of independent sample pairs whose lens contains it.

    `sampler` provides `.space` and `.draw(rng, k)`.  One generator seeded
    by `seed` draws the pairs once, and every point is counted against
    them, so each value is deterministic given `seed` and independent of
    the other points, with standard error <= (4*pairs)^{-1/2}.
    """
    if pairs < 1:
        raise DepthError(f"need at least one pair, got {pairs}")
    points = sampler.space.coerce_points(points)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = np.zeros(len(points), dtype=np.int64)
    for rows in _coverage_batches(points, sampler, pairs, rng):
        hits += [np.count_nonzero(row) for row in rows]
    return hits / pairs


def p2_matrix(points, sampler, pairs: int, seed: int = 0):
    """Joint pair-moment estimates from shared draws.

    Returns (p_vec, p_mat): p_vec[i] = P(point i covered by a random
    lens), p_mat[i, j] = P(points i and j covered by the same lens).
    p_vec is the diagonal of p_mat (indicators are idempotent).
    """
    if pairs < 1:
        raise DepthError(f"need at least one pair, got {pairs}")
    k = len(points)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(2,)))
    hits = np.zeros((k, k), dtype=np.int64)
    for rows in _coverage_batches(points, sampler, pairs, rng):
        # A float64 product of the 0/1 indicators is exact in any summation
        # order: every sum is an integer of at most _MC_BATCH < 2^53.
        ind = np.array(list(rows), dtype=np.float64)
        hits += (ind @ ind.T).astype(np.int64)
    return np.diag(hits) / pairs, hits / pairs
