import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from lensdepth import treespace
from lensdepth.depth import _MC_BATCH, DepthError, _coverage_batches
from lensdepth.dispersion import DispersionError
from lensdepth.levelsets import LatticeGrid, LevelSetError
from lensdepth.metrics import BHVSpace, EuclideanSpace, MetricSpace, SphereSpace, StiefelSpace
from lensdepth.treespace import (
    _COVER_SLACK,
    GeodesicResult,
    Tree,
    TreeError,
    _bits,
    canonical_split,
    compatible,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_vectors(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def random_frames(rng, n, d=3, k=2):
    out = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        out.append(q)
    return np.stack(out)


def space_with_points(kind, rng, n, **kw):
    """A (space, points) pair with valid random points, for generic suites."""
    if kind == "euclidean":
        d = kw.get("dim", 3)
        return EuclideanSpace(d), rng.standard_normal((n, d))
    if kind == "sphere":
        d = kw.get("dim", 3)
        return SphereSpace(d), random_unit_vectors(rng, n, d)
    if kind in ("stiefel-chordal", "stiefel-procrustes"):
        mode = kind.split("-")[1]
        return StiefelSpace(3, 2, mode=mode), random_frames(rng, n)
    raise ValueError(kind)


def random_tree(labels, rng: np.random.Generator) -> Tree:
    """Random binary tree via uniform sequential cluster joins, with every
    edge length uniform on [0.1, 1)."""
    labels = tuple(labels)
    L = len(labels)
    clusters = [1 << i for i in range(L)]
    umask = (1 << L) - 1
    masks = []
    while len(clusters) > 3:
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False))
        merged = clusters[i] | clusters[j]
        masks.append(merged)
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    interior = tuple(sorted(
        (canonical_split(m, umask), float(rng.uniform(0.1, 1.0)))
        for m in masks))
    pendant = tuple(float(rng.uniform(0.1, 1.0)) for _ in range(L))
    return Tree(labels, interior, pendant)


def zero_rich_points(kind, rng, n):
    """A (space, points) pair whose points have many zero entries: vectors
    and unit vectors with zero coordinates, frames with zero rows (signed
    axis columns or a random frame of the other rows), trees with zero
    pendant lengths.  `kind` is a metric name of the command line."""
    if kind == "euclidean":
        dim = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, dim))
        pts[rng.random((n, dim)) < 0.5] = 0.0
        return EuclideanSpace(dim), pts
    if kind == "sphere":
        dim = int(rng.integers(2, 5))
        pts = rng.standard_normal((n, dim))
        pts[rng.random((n, dim)) < 0.5] = 0.0
        pts[np.arange(n), rng.integers(0, dim, n)] = rng.choice([-1.0, 1.0], n)
        return SphereSpace(dim), pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if kind in ("stiefel-chordal", "stiefel-procrustes"):
        k = int(rng.integers(1, 3))
        d = int(rng.integers(k + 1, 5))
        pts = np.zeros((n, d, k))
        for frame in pts:
            rows = np.sort(rng.choice(d, int(rng.integers(k, d + 1)), replace=False))
            if rng.random() < 0.5:
                block = np.eye(len(rows))[:, rng.permutation(len(rows))[:k]]
                frame[rows] = block * rng.choice([-1.0, 1.0], k)
            else:
                frame[rows] = np.linalg.qr(rng.standard_normal((len(rows), k)))[0]
        return StiefelSpace(d, k, kind.split("-")[1]), pts
    if kind == "bhv":
        labels = tuple("ABCDEF")
        trees = np.empty(n, dtype=object)
        for i in range(n):
            t = random_tree(labels, rng)
            pendant = np.where(rng.random(len(labels)) < 0.5, 0.0, t.pendant)
            trees[i] = t.with_lengths([length for _, length in t.interior], pendant)
        return BHVSpace(labels), trees
    raise ValueError(kind)


def negate_zeros(points):
    """`points` with every zero entry negated (0.0 <-> -0.0): equal by
    value, different by bytes."""
    if points.dtype != object:
        return np.where(points == 0.0, -points, points)
    out = np.empty(len(points), dtype=object)
    out[:] = [t.with_lengths([length for _, length in t.interior],
                             [-p if p == 0.0 else p for p in t.pendant]) for t in points]
    return out


def neighbours(values, steps=3):
    """`values` and the floats 1..`steps` representable steps away on
    either side of each."""
    values = np.asarray(values, dtype=float)
    out = [values]
    for direction in (-np.inf, np.inf):
        cur = values
        for _ in range(steps):
            cur = np.nextafter(cur, direction)
            out.append(cur)
    return np.concatenate(out)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # array_equal treats 0.0 and -0.0 as equal; the sign bit must match
    # too (a NaN's sign bit carries nothing and is not compared)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


# ---------------------------------------------------------------------------
# Hostile lattice cases, shared by the lattice depth and lattice psi tests


def lattice_neighbors(grid, i):
    """Flat indices of the 2d axis neighbors of lattice point `i`; None
    marks a position outside the lattice."""
    shape = grid.shape
    coords = np.unravel_index(i, shape)
    out = []
    for d, size in enumerate(shape):
        for delta in (-1, 1):
            c = coords[d] + delta
            if c < 0 or c >= size:
                out.append(None)
                continue
            nb = list(coords)
            nb[d] = c
            out.append(int(np.ravel_multi_index(nb, shape)))
    return out


def halton_normal(n, dim, seed):
    u = qmc.Halton(d=dim, scramble=True, seed=seed).random(n)
    return ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))


def integers(n, dim, lo, hi, seed):
    return np.random.default_rng(seed).integers(lo, hi + 1, (n, dim)).astype(float)


def near_lattice(axes, pairs, seed, tangent=False):
    """Pairs of points whose lens meets a lattice row 1e-12 to 1e-6 steps
    from a lattice index: at an end of the first point's chord or, with
    `tangent`, where the row touches its ball (r^2 - S within a few ulps
    of 0).  A row runs along the longest axis (the last of equally long
    ones)."""
    rng = np.random.default_rng(seed)
    grid = LatticeGrid(tuple(axes))
    axis = len(grid.shape) - 1 - int(np.argmax(grid.shape[::-1]))
    steps = np.array([step for _, _, step in axes])
    out = []
    for _ in range(pairs):
        at = grid.points[rng.integers(len(grid))]
        miss = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -6) * steps[axis]
        p = at + rng.uniform(-2.0, 2.0, len(axes)) * steps
        p[axis] = at[axis] + (miss if tangent else rng.uniform(-4.0, 4.0) * steps[axis])
        gap = at - p             # to the touching point, the ball's radius
        gap[axis] = 0.0 if tangent else at[axis] + miss - p[axis]
        radius = np.sqrt(np.sum(gap * gap))
        # The partner lies near the touching point, which the lens then holds.
        u = gap / radius + 0.3 * rng.standard_normal(len(axes))
        out += [p, p + radius * u / np.linalg.norm(u)]
    return np.array(out)


def zoomed(centre, step, half):
    """Lattice axes of 2 half + 1 points of `step` around `centre`."""
    return [(c - half * step, c + half * step, step) for c in centre]


BIG, SMALL = 2.0 ** 500, 2.0 ** -500
ZOOM = halton_normal(30, 2, 24)
TOUCH = ZOOM[0] + [1.2, 0.9]
NEAR_2D = [(-3.0, 3.0, 0.1), (-3.5, 3.5, 0.1)]
NEAR_3D = [(-1.0, 1.0, 0.1), (-0.5, 0.5, 0.1), (-0.5, 0.5, 0.1)]

# name -> (sample, lattice axes, whether the chord estimate alone
# miscounts, so that the float test must correct some lens).  Tie-heavy
# cases put lattice points exactly on lens boundaries, where the chord
# estimate and the float predicate part.
CASES = {
    "halton-normal": (halton_normal(120, 2, 3), [(-4.0, 4.0, 0.1)] * 2, False),
    "integer-on-integers": (integers(40, 2, -3, 3, 1), [(-4.0, 4.0, 1.0)] * 2, True),
    "integer-on-halves": (integers(40, 2, -3, 3, 2),
                          [(-4.0, 4.0, 0.5), (-4.0, 4.0, 0.25)], True),
    "integer-on-tenths": (integers(30, 2, -3, 3, 3), [(-3.5, 3.5, 0.1)] * 2, True),
    "duplicates": (np.repeat(halton_normal(12, 2, 4), 3, axis=0), [(-3.0, 3.0, 0.1)] * 2,
                   False),
    "all-equal": (np.full((9, 2), 0.5), [(0.0, 2.0, 0.5)] * 2, False),
    "all-equal-off-lattice": (np.full((9, 2), 0.3), [(0.0, 2.0, 0.5)] * 2, False),
    "on-lattice-points": (0.25 * integers(40, 2, -8, 8, 5), [(-2.0, 2.0, 0.25)] * 2, True),
    "odd-steps": (integers(30, 2, -3, 3, 6), [(-4.0, 4.0, 0.3), (-4.0, 4.0, 1 / 3)], True),
    # Near 2^500 the lattice values are spaced a few ulps apart; squares
    # stay finite.
    "offset-2^500": (BIG * (1.0 + 2.0 ** -50 * integers(20, 2, -3, 3, 7)),
                     [(BIG * (1 - 2.0 ** -48), BIG * (1 + 2.0 ** -48), BIG * 2.0 ** -52)] * 2,
                     True),
    # Squares overflow to inf, in the pairwise matrix as on the lattice.
    "squares-overflow": (2.0 ** 510 * halton_normal(20, 2, 8),
                         [(-(2.0 ** 512), 2.0 ** 512, 2.0 ** 508)] * 2, False),
    # Squares of lattice gaps go subnormal.
    "squares-subnormal": (2.0 ** -540 * integers(20, 2, -3, 3, 9),
                          [(-4 * 2.0 ** -540, 4 * 2.0 ** -540, 2.0 ** -541)] * 2, True),
    "offset-2^-500": (SMALL * halton_normal(20, 2, 10),
                      [(-2 * SMALL, 2 * SMALL, SMALL / 8)] * 2, False),
    "single-row": (integers(30, 2, -3, 3, 11), [(0.0, 0.0, 1.0), (-4.0, 4.0, 0.5)], True),
    "single-column": (integers(30, 2, -3, 3, 12), [(-4.0, 4.0, 0.5), (1.0, 1.0, 1.0)], True),
    "3d-normal": (halton_normal(30, 3, 14), [(-3.0, 3.0, 0.3)] * 3, False),
    # Rows run along the longest axis, here the last, the first and the
    # middle one; terms of later axes are added after the row's own.
    # Tenths make real ties that rounding, and so the order of the sum,
    # decides.
    "3d-longest-last": (0.1 * integers(30, 3, -3, 3, 13),
                        [(-0.3, 0.3, 0.1), (-0.2, 0.2, 0.1), (-0.6, 0.6, 0.05)], True),
    "3d-longest-first": (0.1 * integers(30, 3, -3, 3, 15),
                         [(-0.6, 0.6, 0.05), (-0.3, 0.3, 0.1), (-0.2, 0.2, 0.1)], True),
    "3d-longest-middle": (0.1 * integers(30, 3, -3, 3, 16),
                          [(-0.3, 0.3, 0.1), (-0.6, 0.6, 0.05), (-0.2, 0.2, 0.1)], True),
    # Chord ends and tangent rows 1e-12 to 1e-6 steps from a lattice
    # index, inside the band of `depth._chord_band`, where only the check
    # decides; in 3-d the rows run along the first axis, so the other two
    # axes' terms are added after the row's own.
    "near-chord-ends": (near_lattice(NEAR_2D, 20, 17), NEAR_2D, False),
    "near-tangent-rows": (near_lattice(NEAR_2D, 20, 18, tangent=True), NEAR_2D, True),
    "3d-near-chord-ends": (near_lattice(NEAR_3D, 15, 19), NEAR_3D, False),
    "3d-near-tangent-rows": (near_lattice(NEAR_3D, 15, 20, tangent=True), NEAR_3D, True),
    # Normal data recorded to a fixed precision: the precision, or the
    # lattice's step, is a multiple of the other, so lens ends fall on
    # lattice indices.
    "rounded-tenths-on-twentieths": (np.round(halton_normal(40, 2, 21), 1),
                                     [(-1.5, 1.5, 0.05)] * 2, True),
    "rounded-to-the-step": (0.25 * np.round(halton_normal(40, 2, 22) / 0.25),
                            [(-3.0, 3.0, 0.25)] * 2, True),
    "3d-rounded-tenths": (np.round(halton_normal(20, 3, 23), 1), [(-0.7, 0.7, 0.1)] * 3, True),
    # Lattices zoomed onto a sample point, which every lens of a pair
    # containing it has on its boundary.  Steps of 1e-6, 1e-7 and 1e-9
    # against radii of a few units put the band near 1, 10 and 1,000
    # index units, but a lens's own band, tightened by its chord's length,
    # far below 1/2.
    "zoomed-1e-6": (ZOOM, zoomed(ZOOM[0], 1e-6, 60), True),
    "zoomed-1e-7": (ZOOM, zoomed(ZOOM[0], 1e-7, 60), True),
    "zoomed-1e-9": (ZOOM, zoomed(ZOOM[0], 1e-9, 10), True),
    # Zoomed onto the point where rows (along the last axis) touch the
    # ball about ZOOM[0] through TOUCH, a point inside the ball about
    # TOUCH: there a chord is so short that its own band passes 1/2, and
    # the lens is tested along whole rows.
    "zoomed-short-chords": (np.vstack([ZOOM, TOUCH]),
                            zoomed(ZOOM[0] + [np.hypot(*(TOUCH - ZOOM[0])), 0], 1e-9, 10),
                            False),
}


# ---------------------------------------------------------------------------
# The one-pass psi sweeps: the oracle of `dispersion.psi_curve`'s walks,
# which measure only the points a lattice's boundaries need.


def nested_diameters(points, space: MetricSpace, counts, order,
                     pair_matrix: np.ndarray | None = None) -> np.ndarray:
    """Diameters of the prefixes `points[order[:c]]`, c in `counts`.
    Each point added in `order` raises a running maximum by its
    distances to the points added before it, read from `pair_matrix`
    when given, so temporaries are O(N)."""
    ordered = points[order]
    prefix = np.zeros(max(counts, default=0) + 1)   # prefix[c]: first c points
    for k in range(1, len(prefix) - 1):
        row = (space.dists_to(ordered[:k], ordered[k]) if pair_matrix is None
               else pair_matrix[order[k], order[:k]])
        prefix[k + 1] = max(prefix[k], row.max())
    return prefix[counts]


def nested_inradii(points, space: MetricSpace, counts, order,
                   grid: LatticeGrid | None = None) -> np.ndarray:
    """Inradii of the members `points[order[N-c:]]` against the rest, for
    nonincreasing `counts` (0 for c = 0).  Points move to the complement
    in `order`; each member keeps a running minimum distance to it, from
    the lattice's exterior or +inf, so temporaries are O(N)."""
    pts = points[order]
    n = len(pts)
    nearest = np.full(n, np.inf) if grid is None else grid.exterior_distance(pts)
    out, moved = np.zeros(len(counts)), 0
    for j, c in enumerate(c for c in counts if c):
        if c == n and grid is None:
            raise LevelSetError(
                "inradius is undefined with an empty complement outside a "
                "lattice; start the level grid above 0")
        for k in range(moved, n - c):
            np.minimum(nearest[k + 1:], space.dists_to(pts[k + 1:], pts[k]),
                       out=nearest[k + 1:])
        moved = n - c
        out[j] = nearest[n - c:].max()
    return out


# ---------------------------------------------------------------------------
# Hostile tree pairs, for the geodesic solver's differential test


def tree_labels(n_leaves):
    return tuple(f"t{i:02d}" for i in range(n_leaves))


def tree_from_sides(labels, sides, rng=None):
    """Binary tree with the given clades as splits; every length is 1.0,
    or uniform on [0.1, 1) when `rng` is given."""
    umask = (1 << len(labels)) - 1
    splits = sorted({canonical_split(m, umask) for m in sides} - {0})
    splits = [m for m in splits if 2 <= m.bit_count() <= len(labels) - 2]

    def length():
        return 1.0 if rng is None else float(rng.uniform(0.1, 1.0))

    return Tree(labels, tuple((m, length()) for m in splits),
                tuple(length() for _ in labels))


def caterpillar_sides(order):
    """Clades of the caterpillar that joins the leaves in `order`."""
    sides, clade = [], 1 << order[0]
    for leaf in order[1:]:
        clade |= 1 << leaf
        sides.append(clade)
    return sides


def balanced_sides(lo, hi):
    """Clades of the balanced tree on the leaves lo, ..., hi - 1."""
    if hi - lo < 2:
        return []
    mid = (lo + hi) // 2
    return [(1 << hi) - (1 << lo)] + balanced_sides(lo, mid) + balanced_sides(mid, hi)


def nni_neighbor(tree, rng):
    """`tree` after one nearest-neighbor interchange: a random split with
    side S = X | Y, whose parent node also holds S's sibling W, becomes
    X | W with S's length."""
    sides = [m for m, _ in tree.interior]
    s = sides[int(rng.integers(len(sides)))]
    # The smallest strict superset of S, or every leaf but leaf 0.
    parent = min((m for m in sides if m != s and not s & ~m),
                 key=int.bit_count, default=tree.universe_mask & ~1)
    inner = [m for m in sides if m != s and not m & ~s]
    children = [m for m in inner if not any(m != o and not m & ~o for o in inner)]
    covered = 0
    for m in children:
        covered |= m
    children += [1 << b for b in range(tree.n_leaves) if (s & ~covered) >> b & 1]
    moved = min(children) | (parent & ~s)
    lengths = tree.interior_map
    lengths[moved] = lengths.pop(s)
    return Tree(tree.labels, tuple(sorted(lengths.items())), tree.pendant)


def _tree_pairs():
    rng = np.random.default_rng(31)

    def random_pairs(n_leaves, count):
        labels = tree_labels(n_leaves)
        return [(random_tree(labels, rng), random_tree(labels, rng)) for _ in range(count)]

    def relength(pairs, draw):
        return [tuple(t.with_lengths([draw() for _ in t.interior], t.pendant) for t in pair)
                for pair in pairs]

    def power_of_two():
        return 2.0 ** int(rng.integers(-3, 4))

    def nni_walk(tree, steps):
        for _ in range(steps):
            tree = nni_neighbor(tree, rng)
        return tree

    labels16 = tree_labels(16)
    cat, bal = caterpillar_sides(range(16)), balanced_sides(0, 16)
    shuffled = caterpillar_sides(rng.permutation(16).tolist())
    same = [random_tree(tree_labels(n), rng) for n in (12, 24)]
    starts = [random_tree(tree_labels(n), rng) for n in (12, 12, 24, 48)]
    return {
        "identical": [(t, t) for t in same],
        "one-nni": [(t, nni_walk(t, 1)) for t in starts],
        "nni-walk": [(t, nni_walk(t, steps)) for t in starts for steps in (3, 8)],
        "caterpillar-balanced": [(tree_from_sides(labels16, cat), tree_from_sides(labels16, bal)),
                                 (tree_from_sides(labels16, cat, rng),
                                  tree_from_sides(labels16, bal, rng))],
        "caterpillar-shuffled": [(tree_from_sides(labels16, cat), tree_from_sides(labels16, shuffled)),
                                 (tree_from_sides(labels16, cat, rng),
                                  tree_from_sides(labels16, shuffled, rng))],
        "unit-interior": relength(random_pairs(12, 20) + random_pairs(24, 6), lambda: 1.0),
        "powers-of-two": relength(random_pairs(12, 20) + random_pairs(24, 6), power_of_two),
        "pendant-only": [(t, t.with_lengths([length for _, length in t.interior],
                                            rng.uniform(0.0, 1.0, t.n_leaves)))
                         for t in same],
        "random-12": random_pairs(12, 30),
        "random-24": random_pairs(24, 10),
        "random-48": random_pairs(48, 5),
        "random-70": random_pairs(70, 5),     # split masks past 64 bits
    }


# name -> list of tree pairs on one leaf universe each.
TREE_PAIRS = _tree_pairs()


# ---------------------------------------------------------------------------
# The geodesic solver `treespace` replaced, kept unchanged as the oracle of
# `treespace.geodesic`: it takes the same augmentations over index masks
# of the incompatible splits, with dicts keyed by index and by index pair,
# and builds each pair's crossing relation twice.


def _norm(part) -> float:
    s = 0.0
    for _, length in part:
        s += length * length
    return math.sqrt(s)


def _crossing_mask(s: int, splits) -> int:
    """Mask of the positions in `splits`, (side, length) pairs, whose
    canonical side crosses the canonical side `s`.

    Canonical sides never contain leaf 0, so their complements always
    meet, and `compatible` reduces to: the sides are disjoint or nested.
    """
    out = 0
    for k, (t, _) in enumerate(splits):
        if s & t and s & ~t and t & ~s:
            out |= 1 << k
    return out


def _decompose(t1: Tree, t2: Tree):
    """Split the coordinate set into shared-Euclidean terms and the
    mutually incompatible split sets of each tree.

    A split present in only one tree but compatible with every split of
    the other is a shared coordinate ending (or starting) at length 0.
    """
    if t1.labels != t2.labels:
        raise TreeError(
            f"leaf universes differ: {t1.labels!r} vs {t2.labels!r}")
    m1, m2 = t1.interior_map, t2.interior_map
    common_sq = 0.0
    for p, q in zip(t1.pendant, t2.pendant):
        d = p - q
        common_sq += d * d
    a_side: list[tuple[int, float]] = []
    b_side: list[tuple[int, float]] = []
    crossed = 0                          # positions of t2's splits crossing t1's
    for mask, length in t1.interior:
        if mask in m2:
            d = length - m2[mask]
            common_sq += d * d
            continue
        row = _crossing_mask(mask, t2.interior)
        crossed |= row
        if row:
            a_side.append((mask, length))
        else:
            common_sq += length * length
    for k, (mask, length) in enumerate(t2.interior):
        if mask in m1:
            continue
        if crossed >> k & 1:
            b_side.append((mask, length))
        else:
            common_sq += length * length
    return common_sq, tuple(a_side), tuple(b_side)


def _min_weight_cover(apart, bpart, sq_a, sq_b, cross):
    """Minimum-weight vertex cover of a support pair's incompatibility graph.

    `apart` and `bpart` are masks over the indices of the A- and
    B-splits, `sq_a` and `sq_b` the squared lengths by index, and
    `cross[i]` the mask of B-splits crossing A-split i.  Vertex weights
    are squared lengths normalized per side.  By LP duality the cover is
    a min s-t cut of the network s -> a (weight), a -> b (unbounded, for
    each crossing pair), b -> t (weight).  A max flow by shortest
    augmenting paths (Edmonds-Karp, which also terminates with float
    capacities) gives the cut: the cover is every A-split the final
    residual graph cannot reach from s plus every B-split it can reach.

    The augmentations are those of a breadth-first search that queues
    the A-splits with residual capacity in index order, then their
    neighbours in index order, and so on, taken in two phases:

    1. While some one-hop path s -> a -> b -> t is left, the search
       expands every such A-split before any B-split, so it returns the
       lowest a with an unsaturated neighbour b, and the lowest such b.
       That pair is read off the masks without a search.  Residuals
       s -> a and b -> t never rise, so no one-hop path comes back.
    2. The longer paths come from the search itself, which follows the
       reverse edges b -> a through a per-B mask of the A-splits with
       flow into it.  The last, failing search's visited masks are the
       cut.

    Returns (weight, A-mask, B-mask) of the cover.
    """
    ia, ib = _bits(apart), _bits(bpart)
    sa, sb = sum(sq_a[i] for i in ia), sum(sq_b[j] for j in ib)
    wa = {i: sq_a[i] / sa for i in ia}
    wb = {j: sq_b[j] / sb for j in ib}
    res_a, res_b = dict(wa), dict(wb)    # residual capacities of s -> a, b -> t
    adj = {i: cross[i] & bpart for i in ia}
    flow = {}                            # flow[i, j]: residual of b_j -> a_i
    into = dict.fromkeys(ib, 0)          # into[j]: the i with flow[i, j] > 0
    live = sum(1 << j for j in ib if res_b[j] > 0.0)
    for i in ia:
        reach = adj[i] & live
        while reach and res_a[i] > 0.0:
            j = (reach & -reach).bit_length() - 1
            amount = min(res_a[i], res_b[j])
            res_a[i] -= amount
            res_b[j] -= amount
            # Each step saturates s -> a_i or b_j -> t, so no pair repeats.
            flow[i, j] = amount
            into[j] |= 1 << i
            if not res_b[j] > 0.0:
                live &= ~(1 << j)
            reach = adj[i] & live
    n = len(sq_a)                        # node i < n is a_i, node n + j is b_j
    while True:
        pred = {i: None for i in ia if res_a[i] > 0.0}
        queue = list(pred)
        seen_a, seen_b = sum(1 << i for i in queue), 0
        last = None
        for u in queue:
            if u < n:
                step, base = adj[u] & ~seen_b, n
                seen_b |= step
            elif res_b[u - n] > 0.0:
                last = u
                break
            else:
                step, base = into[u - n] & ~seen_a, 0
                seen_a |= step
            while step:                  # new nodes in index order
                low = step & -step
                v = base + low.bit_length() - 1
                pred[v] = u
                queue.append(v)
                step ^= low
        if last is None:
            break
        path = [last]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        path.reverse()                   # a, b, a, b, ..., b
        hops = [(i, b - n) for i, b in zip(path[0::2], path[1::2])]    # forward a -> b
        backs = [(i, b - n) for i, b in zip(path[2::2], path[1::2])]   # reverse b -> a
        amount = min([res_a[path[0]], res_b[last - n]] + [flow[hop] for hop in backs])
        res_a[path[0]] -= amount
        res_b[last - n] -= amount
        for i, j in hops:
            flow[i, j] = flow.get((i, j), 0.0) + amount
            into[j] |= 1 << i
        for i, j in backs:
            flow[i, j] -= amount
            if not flow[i, j] > 0.0:
                into[j] &= ~(1 << i)
    ca = apart & ~seen_a
    return sum(wa[i] for i in _bits(ca)) + sum(wb[j] for j in _bits(seen_b)), ca, seen_b


def _gtp_support(a_side, b_side):
    """Refine the cone support until no pair admits a cover of weight < 1.

    The crossing relation is built once; a support pair is a pair of
    masks over the indices of `a_side` and `b_side`, so every part keeps
    its side's order.
    """
    cross = [_crossing_mask(s, b_side) for s, _ in a_side]
    sq_a = [l * l for _, l in a_side]
    sq_b = [l * l for _, l in b_side]
    pairs = [((1 << len(a_side)) - 1, (1 << len(b_side)) - 1)]
    idx = 0
    while idx < len(pairs):
        apart, bpart = pairs[idx]
        if apart.bit_count() == 1 or bpart.bit_count() == 1:
            # Every vertex of a support pair is incident to an internal
            # incompatibility, so a 1-by-k pair has min cover weight 1.
            idx += 1
            continue
        weight, ca, cb = _min_weight_cover(apart, bpart, sq_a, sq_b, cross)
        if weight >= 1.0 - _COVER_SLACK:
            idx += 1
            continue
        # Each split keeps an incompatible partner in its new pair; weight < 1 empties no part.
        pairs[idx:idx + 1] = [(ca, bpart & ~cb), (apart & ~ca, cb)]
    return tuple((tuple(a_side[i] for i in _bits(am)), tuple(b_side[j] for j in _bits(bm)))
                 for am, bm in pairs)


def former_bhv_distance(t1: Tree, t2: Tree) -> GeodesicResult:
    """Geodesic distance between two trees on the same leaf universe.

    Equals the Euclidean edge-length distance when the topologies agree.
    """
    common_sq, a_side, b_side = _decompose(t1, t2)
    if not a_side and not b_side:
        return GeodesicResult(math.sqrt(common_sq), ())
    if not (a_side and b_side):
        raise TreeError("incompatible splits found in only one tree; "
                        "split compatibility must be symmetric")
    support = _gtp_support(a_side, b_side)
    lsq = 0.0
    for apart, bpart in support:
        term = _norm(apart) + _norm(bpart)
        lsq += term * term
    return GeodesicResult(math.sqrt(common_sq + lsq), support)


# ---------------------------------------------------------------------------
# The exhaustive support-sequence search: the oracle of `bhv_distance` on
# trees of at most 7 leaves, over the package's own decomposition.

_EXHAUSTIVE_MAX_LEAVES = 7


def _surjections(n, k):
    """All maps {0..n-1} -> {0..k-1} hitting every block."""
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) == k:
            yield assignment


def bhv_distance_exhaustive(t1: Tree, t2: Tree) -> float:
    """Exact geodesic length by enumerating every valid support sequence.

    Feasible only for small trees (<= 7 leaves).
    """
    if t1.n_leaves > _EXHAUSTIVE_MAX_LEAVES:
        raise TreeError(
            f"exhaustive search is limited to {_EXHAUSTIVE_MAX_LEAVES} leaves, "
            f"got {t1.n_leaves}")
    common_sq, amask, bmask, _ = treespace._decompose(t1, t2)
    if not amask and not bmask:
        return math.sqrt(common_sq)
    a_side = [t1.interior[i] for i in _bits(amask)]
    b_side = [t2.interior[j] for j in _bits(bmask)]
    umask = t1.universe_mask
    na, nb = len(a_side), len(b_side)
    compat = [[compatible(a[0], b[0], umask) for b in b_side] for a in a_side]
    wa = [l * l for _, l in a_side]
    wb = [l * l for _, l in b_side]

    def seq_length_sq(fa, fb, k):
        # Valid supports need blocks A_i compatible with B_j for i > j,
        # and nondecreasing block norm ratios |A_i|/|B_i|; a sequence
        # with an inverted ratio does not realize the closed-form length
        # (its constrained optimum coincides with the merged sequence,
        # which is also enumerated).
        for ai in range(na):
            for bj in range(nb):
                if fa[ai] > fb[bj] and not compat[ai][bj]:
                    return None
        total = 0.0
        prev_ratio = -1.0
        for blk in range(k):
            sa = sum(wa[i] for i in range(na) if fa[i] == blk)
            sb = sum(wb[j] for j in range(nb) if fb[j] == blk)
            ra, rb = math.sqrt(sa), math.sqrt(sb)
            ratio = ra / rb
            if ratio < prev_ratio:
                return None
            prev_ratio = ratio
            term = ra + rb
            total += term * term
        return total

    best = (math.sqrt(sum(wa)) + math.sqrt(sum(wb))) ** 2          # cone path, k = 1
    for k in range(2, min(na, nb) + 1):
        for fa in _surjections(na, k):
            for fb in _surjections(nb, k):
                val = seq_length_sq(fa, fb, k)
                if val is not None and val < best:
                    best = val
    return math.sqrt(common_sq + best)


# ---------------------------------------------------------------------------
# The pair kernel: every sample pair compared against every query row, the
# oracle of the depth-order walk (`depth._walk_block`) and of the lattice
# and line counts.


def _count_block(dq: np.ndarray, dmat: np.ndarray) -> np.ndarray:
    """Covering-pair counts for a block of queries.

    dq: (m, n) query-to-sample distances; dmat: (n, n) sample matrix.
    Comparisons reuse the exact floats the scalar path would produce, so
    the counts equal the double loop's.
    """
    m, n = dq.shape
    counts = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        row = dmat[i, i + 1:]
        worst = np.maximum(dq[:, i, None], dq[:, i + 1:])
        counts += (worst <= row).sum(axis=1)
    return counts


# ---------------------------------------------------------------------------
# The pair-moment counts with the joint counts as an int64 product: the
# oracle of `depth.p2_matrix`, which forms them with a float64 product.


def former_p2_counts(points, sampler, pairs: int, seed: int = 0):
    """(single, joint) coverage counts from the draws `p2_matrix` makes."""
    k = len(points)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    hit_single = np.zeros(k, dtype=np.int64)
    hit_joint = np.zeros((k, k), dtype=np.int64)
    for rows in _coverage_batches(points, sampler, pairs, rng):
        ind = np.array(list(rows))
        hit_single += ind.sum(axis=1)
        hit_joint += ind.astype(np.int64) @ ind.T
    return hit_single, hit_joint


# ---------------------------------------------------------------------------
# The Monte Carlo population depth of one point, which draws its own pairs:
# the oracle of `depth.population_ld_mc`, which counts a whole point set
# against one set of draws.


def former_population_ld_mc(x, sampler, pairs: int, seed: int = 0) -> float:
    """The fraction of `pairs` independent pairs from `sampler` whose lens
    contains `x`, drawn in batches of _MC_BATCH from a generator seeded by
    `seed`."""
    if pairs < 1:
        raise DepthError(f"need at least one pair, got {pairs}")
    space = sampler.space
    x = space.coerce_point(x)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = done = 0
    while done < pairs:
        m = min(_MC_BATCH, pairs - done)
        y1 = sampler.draw(rng, m)
        y2 = sampler.draw(rng, m)
        r = space.paired_distances(y1, y2)
        hits += int(((space.dists_to(y1, x) <= r) & (space.dists_to(y2, x) <= r)).sum())
        done += m
    return hits / pairs


# ---------------------------------------------------------------------------
# The Student-t versus normal gamma by bisection: the oracle of
# `dispersion.gamma_t_vs_normal_grid`, which `gamma-tn` runs.


def _tn_dominates(lam: np.ndarray, v: float, sigma: float) -> np.ndarray:
    """Indicator that the t(v) level-set width beats the N(0, sigma^2) one.

    Both level sets are central quantile intervals; by symmetry the
    comparison reduces to the upper quantiles at (1 + sqrt(1-2*lam))/2.
    """
    from scipy.special import ndtri, stdtrit   # deferred: slow to import

    # u lies in [1/2, 1], where stdtrit and ndtri are the t and normal
    # quantiles (stdtrit's +inf at q = 0 is never reached).
    u = (1.0 + np.sqrt(np.maximum(1.0 - 2.0 * lam, 0.0))) / 2.0
    return stdtrit(v, u) >= sigma * ndtri(u)


def gamma_t_vs_normal(v: float, sigma: float) -> float:
    """Gamma for X ~ t(v) against Y ~ N(0, sigma^2) on the line.

    Population level sets are closed-form quantile intervals, and the
    level range is (0, 1/2].  Every dominance crossing is located by sign
    scanning plus bisection and the dominated interval lengths summed: an
    independent check of the quadrature in `gamma_t_vs_normal_grid`,
    which it matches to ~1/points.
    """
    if v < 1:
        raise DispersionError(f"degrees of freedom must be >= 1, got {v}")
    if sigma <= 0:
        raise DispersionError(f"sigma must be positive, got {sigma}")
    coarse = 2048
    lam = (np.arange(coarse) + 0.5) * (0.5 / coarse)
    # The dominance region can pinch arbitrarily close to either endpoint
    # (heavy t tails always win as the level approaches 0), so pad the
    # scan with geometric sentinels near both ends.
    edges = 0.5 * np.power(10.0, -np.arange(1, 14, dtype=float))
    lam = np.unique(np.concatenate([lam, edges, 0.5 - edges]))
    dom = _tn_dominates(lam, v, sigma)
    bounds = [0.0]
    for i in range(len(lam) - 1):
        if dom[i] != dom[i + 1]:
            lo, hi = lam[i], lam[i + 1]
            flo = dom[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if bool(_tn_dominates(np.array([mid]), v, sigma)[0]) == flo:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-13:
                    break
            bounds.append(0.5 * (lo + hi))
    bounds.append(0.5)
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = np.array([0.5 * (lo + hi)])
        if bool(_tn_dominates(mid, v, sigma)[0]):
            total += hi - lo
    return total / 0.5
