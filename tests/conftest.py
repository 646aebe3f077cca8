import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from lensdepth.dispersion import DispersionError
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace, StiefelSpace
from lensdepth.treespace import Tree, canonical_split


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


BIG, SMALL = 2.0 ** 500, 2.0 ** -500

# name -> (sample, lattice axes, whether the guard must fire).  Tie-heavy
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
}


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
    }


# name -> list of tree pairs on one leaf universe each.
TREE_PAIRS = _tree_pairs()


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
