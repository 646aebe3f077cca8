"""Phylogenetic trees as weighted split systems, with geodesic tree-space distance.

A tree on a fixed ordered leaf universe is a set of pairwise-compatible
interior splits (bitmask bipartitions, canonically the side not
containing leaf 0) with positive lengths, plus one nonnegative pendant
length per leaf.  Distances are geodesics in the
Billera-Holmes-Vogtmann orthant complex, computed by successive support
refinement: each support pair is split while its incompatibility graph
admits a vertex cover of weight < 1 (`_min_weight_cover`).  Supports are
pairs of masks over the two trees' split positions, and each split of
the first tree gets one crossing row per tree pair.  An exhaustive
support-sequence oracle for trees with at most 7 leaves cross-checks
the solver in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

ZERO_LENGTH_TOL = 1e-12
_COVER_SLACK = 1e-12
_EXHAUSTIVE_MAX_LEAVES = 7


class TreeError(ValueError):
    """Structurally invalid tree or invalid tree operation."""


class NewickError(ValueError):
    """Newick syntax or semantic error; `offset` is the failing byte offset
    and `message` the text without it."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


def _laminar(masks, n_leaves: int):
    """Nesting of canonical split sides, or TreeError if two cross.

    Sides never contain leaf 0, so two splits are compatible exactly when
    their sides are disjoint or nested: the sides of a tree form a
    laminar family.  One pass in ascending mask order (a subset's mask is
    never larger) keeps a union-find over leaves whose roots record the
    largest side placed so far; each new side absorbs the components
    under its bits, and one whose side is not a subset is a crossing.
    Returns each side's parent (its smallest strict superset, or None)
    and each leaf's host (its smallest side, or None).
    """
    root = list(range(n_leaves))
    top = [None] * n_leaves               # at a root: largest side placed over it
    host = [None] * n_leaves
    parent = {}

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for m in sorted(masks):
        parent[m] = None
        rest, merged = m, None
        while rest:
            r = find((rest & -rest).bit_length() - 1)
            side = top[r]
            if side is None:               # a leaf no side has covered yet
                host[r] = m
                rest &= rest - 1
            elif side & ~m:
                umask = (1 << n_leaves) - 1
                m1, m2 = next(pair for pair in itertools.combinations(masks, 2)
                              if not compatible(*pair, umask))
                raise TreeError(f"incompatible splits {m1:#x} and {m2:#x}")
            else:
                parent[side] = m
                rest &= ~side
            if merged is None:
                merged = r
            else:
                root[r] = merged
        top[merged] = m
    return parent, host


def canonical_split(mask: int, universe_mask: int) -> int:
    """Canonical encoding of a bipartition: the side not containing leaf 0."""
    return mask ^ universe_mask if mask & 1 else mask


def compatible(s1: int, s2: int, universe_mask: int) -> bool:
    """True iff the two bipartitions can occur together in one tree.

    Holds exactly when at least one of the four pairwise side
    intersections is empty.
    """
    c1 = s1 ^ universe_mask
    c2 = s2 ^ universe_mask
    return (s1 & s2) == 0 or (s1 & c2) == 0 or (c1 & s2) == 0 or (c1 & c2) == 0


@dataclass(frozen=True)
class Tree:
    """Unrooted weighted tree: leaf labels, interior splits, pendant lengths.

    `interior` holds (canonical mask, length) pairs sorted by mask;
    `pendant` is aligned with `labels`.
    """

    labels: tuple[str, ...]
    interior: tuple[tuple[int, float], ...]
    pendant: tuple[float, ...]

    def __post_init__(self):
        L = len(self.labels)
        if L < 1:
            raise TreeError("a tree needs at least one leaf")
        if len(set(self.labels)) != L:
            raise TreeError("duplicate leaf labels")
        if len(self.pendant) != L:
            raise TreeError(f"expected {L} pendant lengths, got {len(self.pendant)}")
        for i, p in enumerate(self.pendant):
            if not (p >= 0.0) or not math.isfinite(p):
                raise TreeError(f"pendant length of {self.labels[i]!r} must be >= 0")
        umask = (1 << L) - 1
        masks = [m for m, _ in self.interior]
        if len(self.interior) > max(L - 3, 0):
            raise TreeError(f"{len(self.interior)} interior splits exceed the "
                            f"maximum {max(L - 3, 0)} for {L} leaves")
        if len(set(masks)) != len(masks):
            raise TreeError("duplicate interior split")
        for m, length in self.interior:
            if m & 1 or m <= 0 or m > umask:
                raise TreeError(f"split {m:#x} is not in canonical form")
            size = m.bit_count()
            if size < 2 or size > L - 2:
                raise TreeError(f"split {m:#x} is not interior (side size {size})")
            if not (length > 0.0) or not math.isfinite(length):
                raise TreeError("interior split lengths must be positive")
        _laminar(masks, L)

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @property
    def universe_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @property
    def interior_map(self) -> dict[int, float]:
        return dict(self.interior)

    @cached_property
    def _tables(self):     # for the geodesic: length by side, squares, (side, bit) pairs
        squares = [length * length for _, length in self.interior]
        # The covers weigh each square by a sum of them; a weight of 0 (or nan)
        # lets a refinement split off empty parts, which never ends or divides by 0.
        if squares and not (min(squares) > 0.0 and min(squares) / sum(squares) > 0.0):
            raise TreeError("each squared interior split length must be a nonzero "
                            "fraction of their finite sum")
        return (dict(self.interior), squares,
                [(m, 1 << k) for k, (m, _) in enumerate(self.interior)])

    def sort_key(self):
        return (self.labels, self.interior, self.pendant)

    def with_lengths(self, interior_lengths, pendant_lengths) -> "Tree":
        """Same topology with replaced edge lengths."""
        interior = tuple((m, float(l)) for (m, _), l
                         in zip(self.interior, interior_lengths))
        return Tree(self.labels, interior, tuple(float(p) for p in pendant_lengths))


# ---------------------------------------------------------------------------
# Newick parsing and serialization


def parse_newick(text: str, universe=None) -> Tree:
    """Parse a single Newick expression (terminated by ';') into a Tree.

    Branch lengths are mandatory except on the root.  A degree-2 root is
    suppressed (its two incident edge lengths are added), interior
    splits with length <= 1e-12 are dropped, and the leaf order is the
    sorted label order unless an explicit `universe` fixes it, in which
    case the parsed leaf set must equal the universe.
    """
    s = text
    n = len(s)
    pos = 0
    seen: dict[str, int] = {}
    # Leaves in text order: the leaves below an edge are a range of it.
    order: list[str] = []
    edges: list[tuple[int, int, float]] = []   # (start, end) of that range, length
    universe_set = set(universe) if universe is not None else None

    def skip_ws(i):
        while i < n and s[i].isspace():
            i += 1
        return i

    def read_label(i):
        j = i
        while j < n and s[j] not in "(),:;":
            j += 1
        label = s[i:j].strip()
        if not label:
            raise NewickError("expected a leaf label", i)
        return label, j

    def read_length(i, *, required):
        i = skip_ws(i)
        if i >= n or s[i] != ":":
            if required:
                raise NewickError("missing branch length", i)
            return None, i
        i += 1
        j = i
        while j < n and (s[j].isdigit() or s[j] in "+-.eE"):
            j += 1
        try:
            value = float(s[i:j])
        except ValueError:
            raise NewickError("malformed branch length", i) from None
        if value < 0:
            raise NewickError("negative branch length", i)
        return value, j

    # Iterative descent, so nesting depth is bounded by memory, not by the
    # interpreter's recursion limit.
    stack: list[tuple] = []       # open clades: (offset of '(', first leaf's rank)
    while True:
        pos = skip_ws(pos)
        if pos >= n:
            raise NewickError("unexpected end of input", pos)
        if s[pos] == "(":
            stack.append((pos, len(order)))
            pos += 1
            continue
        if s[pos] in "),:;":
            raise NewickError(f"expected a subtree, found {s[pos]!r}", pos)
        at = pos
        label, pos = read_label(pos)
        if label in seen:
            raise NewickError(f"duplicate leaf label {label!r}", at)
        if universe_set is not None and label not in universe_set:
            raise NewickError(f"leaf label {label!r} absent from universe", at)
        seen[label] = at
        order.append(label)
        length, pos = read_length(pos, required=bool(stack))
        if stack or length is not None:
            # a single-leaf tree may have a length
            edges.append((len(order) - 1, len(order), length))
        # Close every clade that ends here; stop at a ',' or at the root.
        while stack:
            opened, first = stack[-1]
            pos = skip_ws(pos)
            if pos >= n:
                raise NewickError("unbalanced parentheses", opened)
            if s[pos] == ",":
                pos += 1
                break
            if s[pos] != ")":
                raise NewickError(f"expected ',' or ')', found {s[pos]!r}", pos)
            stack.pop()
            pos = skip_ws(pos + 1)
            if pos < n and s[pos] not in "(),:;":
                _, pos = read_label(pos)      # internal label (e.g. support); ignored
            length, pos = read_length(pos, required=bool(stack))
            if stack:
                edges.append((first, len(order), length))
        if not stack:
            break

    pos = skip_ws(pos)
    if pos >= n or s[pos] != ";":
        raise NewickError("missing terminating ';'", pos)
    pos = skip_ws(pos + 1)
    if pos < n:
        raise NewickError(f"trailing characters after ';': {s[pos:pos+10]!r}", pos)

    if universe is not None:
        labels = tuple(universe)
        missing = set(labels) - set(order)
        if missing:
            raise NewickError(
                f"tree lacks universe leaves {sorted(missing)!r}", n - 1)
    else:
        labels = tuple(sorted(order))
    index = {lab: k for k, lab in enumerate(labels)}
    L = len(labels)
    umask = (1 << L) - 1
    # prefix[r]: bits of the first r leaves in text order, so the mask of a
    # range is prefix[end] ^ prefix[start] (each leaf appears once).
    prefix = [0]
    for lab in order:
        prefix.append(prefix[-1] | 1 << index[lab])
    pendant = [0.0] * L
    interior: dict[int, float] = {}
    for start, end, length in edges:
        mask = prefix[end] ^ prefix[start]
        size = end - start
        if size == 1:
            pendant[mask.bit_length() - 1] += length
        elif size == L - 1:
            # A degree-2 root above a leaf: the edge is that leaf's pendant.
            pendant[(mask ^ umask).bit_length() - 1] += length
        elif size == L:
            continue
        else:
            mask = canonical_split(mask, umask)
            interior[mask] = interior.get(mask, 0.0) + length
    splits = tuple(sorted((m, l) for m, l in interior.items()
                          if l > ZERO_LENGTH_TOL))
    return Tree(labels, splits, tuple(pendant))


def to_newick(tree: Tree) -> str:
    """Serialize a tree; `parse_newick` recovers the identical split system."""
    L = tree.n_leaves
    if L == 1:
        return f"{tree.labels[0]}:{tree.pendant[0]!r};"
    parent, host = _laminar([m for m, _ in tree.interior], L)
    # Children as masks: a leaf is its single bit, a side has at least two.
    children = {m: [] for m in [None, *parent]}
    for m, p in parent.items():
        children[p].append(m)
    for leaf, h in enumerate(host):
        children[h].append(1 << leaf)
    lengths = tree.interior_map

    def lowest_bit(m):
        return m & -m

    # Explicit stack of (children still to write, closing text), so deep
    # nesting does not hit the recursion limit.
    parts = ["("]
    stack = [(iter(sorted(children[None], key=lowest_bit)), ");")]
    while stack:
        pending, close = stack[-1]
        m = next(pending, None)
        if m is None:
            stack.pop()
            parts.append(close)
            continue
        if parts[-1] != "(":
            parts.append(",")
        if m.bit_count() == 1:
            leaf = m.bit_length() - 1
            parts.append(f"{tree.labels[leaf]}:{tree.pendant[leaf]!r}")
        else:
            parts.append("(")
            stack.append((iter(sorted(children[m], key=lowest_bit)), f"):{lengths[m]!r}"))
    return "".join(parts)


def parse_newick_lines(lines) -> tuple[list[Tree], list[int]]:
    """Parse one tree per line; '#' lines and blanks are skipped.

    The first tree fixes the leaf universe.  Returns the trees and their
    1-based line numbers.
    """
    trees: list[Tree] = []
    numbers: list[int] = []
    universe = None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tree = parse_newick(stripped, universe=universe)
        except NewickError as exc:
            raise NewickError(f"line {lineno}: {exc.message}", exc.offset) from None
        if universe is None:
            universe = tree.labels
        trees.append(tree)
        numbers.append(lineno)
    return trees, numbers


# ---------------------------------------------------------------------------
# Geodesic distance


@dataclass(frozen=True)
class GeodesicResult:
    """Geodesic length plus the support sequence realizing it.

    `support` is a sequence of ((a splits...), (b splits...)) pairs,
    each split a (mask, length) tuple; empty for same-topology pairs.
    """

    distance: float
    support: tuple


def _crossing_mask(s: int, sides) -> int:
    """OR of the bits of the (side, bit) pairs in `sides` whose side crosses
    `s`: canonical sides never contain leaf 0, so two cross exactly when
    their intersection is neither empty nor either side."""
    out = 0
    for t, bit in sides:
        x = s & t
        if x and x != s and x != t:
            out |= bit
    return out


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _decompose(t1: Tree, t2: Tree):
    """Split the coordinate set into shared-Euclidean terms and the
    mutually incompatible split sets of each tree.

    A split present in only one tree but compatible with every split of
    the other is a shared coordinate ending (or starting) at length 0.
    Returns the shared squared length, the masks of the incompatible
    positions of `t1.interior` and `t2.interior`, and the crossing row of
    each position of t1: the mask of t2's positions crossing it.
    """
    if t1.labels != t2.labels:
        raise TreeError(f"leaf universes differ: {t1.labels!r} vs {t2.labels!r}")
    (m1, _, _), (m2, _, sides) = t1._tables, t2._tables
    common_sq = 0.0
    for p, q in zip(t1.pendant, t2.pendant):
        d = p - q
        common_sq += d * d
    amask = bmask = 0
    cross = [0] * len(t1.interior)
    for i, (mask, length) in enumerate(t1.interior):
        if mask in m2:
            d = length - m2[mask]
            common_sq += d * d
        elif row := _crossing_mask(mask, sides):
            cross[i] = row
            amask |= 1 << i
            bmask |= row
        else:
            common_sq += length * length
    for k, (mask, length) in enumerate(t2.interior):
        if not bmask >> k & 1 and mask not in m1:
            common_sq += length * length
    return common_sq, amask, bmask, cross


def _min_weight_cover(apart, bpart, sq_a, sq_b, cross):
    """Minimum-weight vertex cover of a support pair's incompatibility graph.

    `apart` and `bpart` mask the two trees' split positions, `sq_a` and
    `sq_b` hold squared lengths by position, and `cross[i]` masks the
    B-splits crossing A-split i.  With weights normalized per side, the
    cover is a min s-t cut of s -> a (weight), a -> b (unbounded, per
    crossing pair), b -> t (weight), from a max flow that takes the paths
    of Edmonds-Karp's breadth-first search, which queues the A-splits with
    residual capacity, then their neighbours, and so on, by position:

    1. While a one-hop path s -> a -> b -> t is left, the search returns
       the lowest such a and its lowest unsaturated neighbour b, read off
       the masks; residuals s -> a and b -> t never rise, so none returns.
    2. Then every B-split queued before the path's end is saturated, so
       the search stops at the first A-split it queues with an unsaturated
       neighbour.  Reverse edges come from a per-B mask of the A-splits
       with flow into it.  The last, failing search gives the cut: the
       A-splits it cannot reach and the B-splits it can.

    Residuals, flows and predecessors are flat lists by position.
    Returns (weight, A-mask, B-mask) of the cover.
    """
    ia, ib, nb = _bits(apart), _bits(bpart), len(sq_b)
    sa, sb = sum([sq_a[i] for i in ia]), sum([sq_b[j] for j in ib])
    res_a, res_b = [x / sa for x in sq_a], [x / sb for x in sq_b]
    flow = [0.0] * (len(sq_a) * nb)      # flow[i * nb + j]: residual of b_j -> a_i
    into = [0] * nb                      # into[j]: the i with flow into b_j
    live = sum([1 << j for j in ib if res_b[j] > 0.0])     # the j with residual b_j -> t
    active = 0                           # the i with residual s -> a_i
    for i in ia:
        reach, r, row, bit = cross[i] & live, res_a[i], i * nb, 1 << i
        while reach and r > 0.0:
            low = reach & -reach
            j = low.bit_length() - 1
            amount = min(r, res_b[j])
            r -= amount
            res_b[j] -= amount
            # Each step saturates s -> a_i or b_j -> t, so no pair repeats.
            flow[row + j] = amount
            into[j] |= bit
            if not res_b[j] > 0.0:
                live ^= low
                reach ^= low
        res_a[i] = r
        if r > 0.0:
            active |= bit
    from_b, from_a = [0] * len(sq_a), [0] * nb     # who queued a_i, who queued b_j
    while True:
        queue = _bits(active)            # a_i is i, b_j is ~j
        seen_a, free_b, last = active, bpart, -1
        for u in queue:
            if u >= 0:
                step = cross[u] & free_b
                free_b ^= step
                while step:              # new nodes in position order
                    low = step & -step
                    j = low.bit_length() - 1
                    from_a[j] = u
                    queue.append(~j)
                    step ^= low
                continue
            step = into[~u] & ~seen_a
            seen_a |= step
            while step:
                low = step & -step
                i = low.bit_length() - 1
                from_b[i] = ~u
                reach = cross[i] & live
                if reach:
                    last = (reach & -reach).bit_length() - 1
                    from_a[last] = i
                    break
                queue.append(i)
                step ^= low
            if last >= 0:
                break
        if last < 0:
            break
        start, backs = from_a[last], []  # back along the path to its first a
        while not active >> start & 1:
            j = from_b[start]
            backs.append(flow[start * nb + j])      # reverse edge b_j -> a_start
            start = from_a[j]
        amount = min([res_a[start], res_b[last]] + backs[::-1])
        res_a[start] -= amount
        if not res_a[start] > 0.0:
            active ^= 1 << start
        res_b[last] -= amount
        if not res_b[last] > 0.0:
            live ^= 1 << last
        i, j = from_a[last], last        # each edge of the path changes its flow once
        while True:
            flow[i * nb + j] += amount   # a_i -> b_j
            into[j] |= 1 << i
            if i == start:
                break
            j = from_b[i]
            flow[i * nb + j] -= amount   # b_j -> a_i
            if not flow[i * nb + j] > 0.0:
                into[j] &= ~(1 << i)
            i = from_a[j]
    ca, cb = apart & ~seen_a, bpart & ~free_b
    return (sum([sq_a[i] / sa for i in ia if ca >> i & 1]) if ca else 0) + (
        sum([sq_b[j] / sb for j in ib if cb >> j & 1]) if cb else 0), ca, cb


def geodesic(t1: Tree, t2: Tree):
    """Geodesic length and support, as (A-mask, B-mask) position pairs:
    the one solver, whose length alone the distance matrices read."""
    common_sq, amask, bmask, cross = _decompose(t1, t2)
    if not amask and not bmask:
        return math.sqrt(common_sq), []
    if not (amask and bmask):
        raise TreeError("incompatible splits found in only one tree; "
                        "split compatibility must be symmetric")
    sq_a, sq_b = t1._tables[1], t2._tables[1]
    pairs, idx = [(amask, bmask)], 0     # the cone; each part keeps its tree's order
    while idx < len(pairs):
        apart, bpart = pairs[idx]
        # Every vertex of a support pair is incident to an internal
        # incompatibility, so a 1-by-k pair has min cover weight 1.
        if apart.bit_count() != 1 and bpart.bit_count() != 1:
            weight, ca, cb = _min_weight_cover(apart, bpart, sq_a, sq_b, cross)
            if not weight >= 1.0 - _COVER_SLACK:
                # Each split keeps an incompatible partner in its new pair; weight < 1 empties no part.
                pairs[idx:idx + 1] = [(ca, bpart & ~cb), (apart & ~ca, cb)]
                continue
        idx += 1
    lsq = 0.0
    for apart, bpart in pairs:
        sa = sb = 0.0                    # each part's squares, summed in position order
        while apart:
            low = apart & -apart
            sa += sq_a[low.bit_length() - 1]
            apart ^= low
        while bpart:
            low = bpart & -bpart
            sb += sq_b[low.bit_length() - 1]
            bpart ^= low
        term = math.sqrt(sa) + math.sqrt(sb)
        lsq += term * term
    return math.sqrt(common_sq + lsq), pairs


def bhv_distance(t1: Tree, t2: Tree) -> GeodesicResult:
    """Geodesic distance between two trees on the same leaf universe.

    Equals the Euclidean edge-length distance when the topologies agree.
    """
    distance, pairs = geodesic(t1, t2)
    return GeodesicResult(distance, tuple(
        (tuple(t1.interior[i] for i in _bits(am)), tuple(t2.interior[j] for j in _bits(bm)))
        for am, bm in pairs))


def _surjections(n, k):
    """All maps {0..n-1} -> {0..k-1} hitting every block."""
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) == k:
            yield assignment


def bhv_distance_exhaustive(t1: Tree, t2: Tree) -> float:
    """Exact geodesic length by enumerating every valid support sequence.

    Feasible only for small trees (<= 7 leaves); intended as a test
    oracle for `bhv_distance`.
    """
    if t1.n_leaves > _EXHAUSTIVE_MAX_LEAVES:
        raise TreeError(
            f"exhaustive search is limited to {_EXHAUSTIVE_MAX_LEAVES} leaves, "
            f"got {t1.n_leaves}")
    common_sq, amask, bmask, _ = _decompose(t1, t2)
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
