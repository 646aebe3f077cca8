import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensdepth import treespace
from lensdepth.treespace import (
    NewickError,
    Tree,
    TreeError,
    bhv_distance,
    bhv_distance_exhaustive,
    canonical_split,
    compatible,
    parse_newick,
    parse_newick_lines,
    to_newick,
)

from conftest import _decompose, _norm, random_tree

LABELS5 = ("A", "B", "C", "D", "E")
U5 = 0b11111


def mask(letters):
    return sum(1 << "ABCDEFG".index(c) for c in letters)


def tree5(splits, pendant=(1.0,) * 5):
    canon = tuple(sorted((canonical_split(m, U5), l) for m, l in splits))
    return Tree(LABELS5, canon, pendant)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_five_leaf_example():
    t = parse_newick("((A:1,B:1):0.5,(C:1,D:1):0.5,E:1);")
    assert t.labels == LABELS5
    assert dict(t.interior) == {mask("CDE"): 0.5, mask("CD"): 0.5}
    assert t.pendant == (1.0,) * 5
    # Internal labels (support values) are skipped, and an edge above
    # the whole leaf set, a root with one child, splits nothing.
    assert parse_newick("((A:1,B:1)95:0.5,(C:1,D:1)x:0.5,E:1)root;") == t
    assert parse_newick("(((A:1,B:1):0.5,(C:1,D:1):0.5,E:1):0.25);") == t


def test_parse_two_leaf():
    t = parse_newick("(A:1,B:2);")
    assert t.interior == ()
    assert t.pendant == (1.0, 2.0)


def test_parse_degree_two_root_merges_edges():
    t = parse_newick("((A:1,B:1):0.5,(C:1,D:1):0.7);")
    assert dict(t.interior) == {mask("CD"): pytest.approx(1.2)}


def test_parse_root_leaf_merges_into_pendant():
    t = parse_newick("(A:1,(B:1,C:1):0.5);")
    assert t.interior == ()
    assert t.pendant == (1.5, 1.0, 1.0)


@pytest.mark.parametrize("text,fragment", [
    ("((A:1,B:1):0.5,C:1", "unbalanced"),
    ("(A:1,B:1,A:1);", "duplicate"),
    ("(A:1,B:-2);", "negative"),
    ("(A:1,B);", "missing branch length"),
    ("(A:1,B:1)", "missing terminating"),
    ("(A:1,B:1); junk", "trailing"),
])
def test_parse_errors_have_offsets(text, fragment):
    with pytest.raises(NewickError, match=fragment) as err:
        parse_newick(text)
    assert isinstance(err.value.offset, int)


def test_parse_universe_mismatch():
    with pytest.raises(NewickError, match="absent from universe"):
        parse_newick("(A:1,X:1);", universe=("A", "B"))
    with pytest.raises(NewickError, match="lacks universe"):
        parse_newick("(A:1,B:1);", universe=("A", "B", "C"))


def test_parse_drops_zero_length_interior():
    t = parse_newick("((A:1,B:1):1e-15,(C:1,D:1):0.5,E:1);")
    assert dict(t.interior) == {mask("CD"): 0.5}


def test_parse_newick_lines_comments_and_numbers():
    trees, numbers = parse_newick_lines([
        "# a comment",
        "(A:1,B:1,C:1);",
        "",
        "((A:1,B:1):0.2,C:1);",
    ])
    assert numbers == [2, 4]
    assert trees[0].labels == trees[1].labels


def test_deep_caterpillar_roundtrip():
    # 1,200 nested clades: deeper than the interpreter's recursion limit.
    text = "t0:0.5"
    for k in range(1, 1201):
        text = f"({text},t{k}:0.5):0.25"
    t = parse_newick(text + ";")
    assert len(t.interior) == 1198
    assert parse_newick(to_newick(t)) == t


def test_roundtrip_random_trees(rng):
    for leaves in (2, 3, 4, 5, 6, 7):
        labels = tuple("ABCDEFG"[:leaves])
        for _ in range(40):
            t = random_tree(labels, rng)
            assert parse_newick(to_newick(t)) == t


def random_rooted_newick(rng, labels):
    """A random rooted tree with 2- and 3-way joins, its root of degree
    2 or 3, written with the children in random order.  Returns the text
    and every edge below the root as (set of leaves below it, length)."""
    nodes = [(frozenset([lab]), lab) for lab in labels]
    edges = []

    def join(group):
        parts = []
        for leaves, text in group:
            length = float(rng.uniform(0.1, 1.0))
            edges.append((leaves, length))
            parts.append(f"{text}:{length!r}")
        return frozenset().union(*(leaves for leaves, _ in group)), "(" + ",".join(parts) + ")"

    root_degree = int(rng.integers(2, 4))
    while len(nodes) > root_degree:
        k = min(int(rng.integers(2, 4)), len(nodes) - 1)
        picked = rng.choice(len(nodes), size=k, replace=False).tolist()   # random order
        nodes = [n for i, n in enumerate(nodes) if i not in picked] + \
            [join([nodes[i] for i in picked])]
    return join(nodes)[1] + ";", edges


def tree_from_leaf_sets(edges, labels):
    """The split system of the edges, built from explicit leaf sets: a
    degree-2 root's two edges merge, into a pendant edge when one side is
    a single leaf."""
    index = {lab: i for i, lab in enumerate(labels)}
    L = len(labels)
    pendant = [0.0] * L
    interior = {}
    for leaves, length in edges:
        if len(leaves) == 1:
            pendant[index[next(iter(leaves))]] += length
        elif len(leaves) == L - 1:
            pendant[index[next(iter(set(labels) - leaves))]] += length
        else:
            m = canonical_split(sum(1 << index[lab] for lab in leaves), (1 << L) - 1)
            interior[m] = interior.get(m, 0.0) + length
    return Tree(tuple(labels), tuple(sorted(interior.items())), tuple(pendant))


def test_parse_matches_explicit_split_sets(rng):
    for _ in range(300):
        n_leaves = int(rng.integers(2, 12))
        labels = [f"t{i}" for i in rng.permutation(n_leaves).tolist()]
        text, edges = random_rooted_newick(rng, labels)
        t = parse_newick(text)
        assert t == tree_from_leaf_sets(edges, sorted(labels))
        assert parse_newick(to_newick(t)) == t
        # An explicit universe fixes a leaf order other than the sorted one.
        assert parse_newick(text, universe=labels) == tree_from_leaf_sets(edges, labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 5 - 1), st.integers(0, 2 ** 5 - 1))
def test_compatibility_symmetric_and_reflexive(m1, m2):
    assert compatible(m1, m1, U5)
    assert compatible(m1, m2, U5) == compatible(m2, m1, U5)
    # complements encode the same bipartition
    assert compatible(m1 ^ U5, m2, U5) == compatible(m1, m2, U5)


def test_compatible_examples():
    assert compatible(mask("AB"), mask("ABC"), U5)       # nested clades
    assert not compatible(mask("AB"), mask("AC"), U5)    # crossing
    assert compatible(mask("CD"), mask("CD"), U5)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2 ** n - 1), st.integers(0, 2 ** n - 1))))
def test_crossing_check_is_incompatibility_of_canonical_sides(case):
    n, s, t = case
    s, t = s & ~1, t & ~1                 # canonical: the side without leaf 0
    crosses = treespace._crossing_mask(s, [(t, 1)]) == 1
    assert crosses == (not compatible(s, t, 2 ** n - 1))


# ---------------------------------------------------------------------------
# Tree validation


def test_tree_rejects_incompatible_splits():
    with pytest.raises(TreeError, match="incompatible"):
        tree5([(mask("AB"), 0.3), (mask("AC"), 0.4)])


def pairwise_outcome(masks, n_leaves):
    """The pairwise compatibility scan: the error for the first crossing
    pair in `itertools.combinations` order, or None."""
    umask = (1 << n_leaves) - 1
    for m1, m2 in itertools.combinations(masks, 2):
        if not compatible(m1, m2, umask):
            return f"incompatible splits {m1:#x} and {m2:#x}"
    return None


def random_sides(rng, n_leaves, nested):
    """Distinct canonical interior sides, at most n_leaves - 3 of them, in
    random order: a random tree's sides, half the time with one random
    side added (`nested`), or random sides, which mostly cross."""
    if n_leaves < 4:
        return []

    def random_side():
        return int(rng.integers(1, 1 << (n_leaves - 1))) << 1

    if nested:
        sides = [m for m, _ in random_tree(range(n_leaves), rng).interior]
        if rng.random() < 0.5:
            sides.append(random_side())
    else:
        sides = [random_side() for _ in range(n_leaves)]
    sides = [m for m in dict.fromkeys(sides) if 2 <= m.bit_count() <= n_leaves - 2]
    rng.shuffle(sides)
    return sides[:n_leaves - 3]


def test_laminar_check_matches_pairwise_scan(rng):
    outcomes = {None: 0, "error": 0}
    for trial in range(3000):
        n_leaves = int(rng.integers(4, 14))
        masks = random_sides(rng, n_leaves, nested=trial % 2 == 0)
        expected = pairwise_outcome(masks, n_leaves)
        labels = tuple(f"x{i}" for i in range(n_leaves))
        try:
            Tree(labels, tuple((m, 1.0) for m in masks), (1.0,) * n_leaves)
            got = None
        except TreeError as exc:
            got = str(exc)
        assert got == expected, masks
        outcomes[None if got is None else "error"] += 1
    assert min(outcomes.values()) > 500


def test_laminar_parents_and_hosts_match_pairwise_search(rng):
    for _ in range(300):
        n_leaves = int(rng.integers(1, 10))
        sides = random_sides(rng, n_leaves, nested=True)
        if pairwise_outcome(sides, n_leaves) is not None:
            continue
        parent, host = treespace._laminar(sides, n_leaves)
        ordered = sorted(sides, key=lambda m: (m.bit_count(), m))
        for i, m in enumerate(ordered):
            assert parent[m] == next((b for b in ordered[i + 1:] if m & b == m), None)
        for leaf in range(n_leaves):
            assert host[leaf] == next((m for m in ordered if m >> leaf & 1), None)


def reference_newick(tree):
    """`to_newick` by explicit superset searches: each side's parent is
    its smallest strict superset and each leaf's host its smallest side;
    children are written in the order of their lowest leaf."""
    sides = sorted((m for m, _ in tree.interior), key=lambda m: (m.bit_count(), m))
    lengths = tree.interior_map

    def write(node):
        items = [m for m in sides
                 if next((b for b in sides if b != m and b & m == m), None) == node]
        items += [1 << k for k in range(tree.n_leaves)
                  if next((m for m in sides if m >> k & 1), None) == node]
        out = []
        for m in sorted(items, key=lambda m: m & -m):
            if m.bit_count() == 1:
                k = m.bit_length() - 1
                out.append(f"{tree.labels[k]}:{tree.pendant[k]!r}")
            else:
                out.append(f"({write(m)}):{lengths[m]!r}")
        return ",".join(out)

    if tree.n_leaves == 1:
        return f"{tree.labels[0]}:{tree.pendant[0]!r};"
    return f"({write(None)});"


def test_newick_strings_match_reference_writer(rng):
    for _ in range(300):
        n_leaves = int(rng.integers(1, 10))
        labels = tuple(f"t{i}" for i in range(n_leaves))
        t = (random_tree(labels, rng) if n_leaves >= 3
             else Tree(labels, (), tuple(rng.uniform(0.1, 1.0, n_leaves))))
        kept = tuple(split for split in t.interior if rng.random() < 0.7)
        t = Tree(labels, kept, t.pendant)
        assert to_newick(t) == reference_newick(t)


def caterpillar(n_leaves):
    """A caterpillar whose sides are the nested suffixes {k, ..., n-1}."""
    labels = tuple(f"x{i:04d}" for i in range(n_leaves))
    umask = (1 << n_leaves) - 1
    interior = tuple(sorted((umask ^ ((1 << k) - 1), 0.5 + k / n_leaves)
                            for k in range(2, n_leaves - 1)))
    return Tree(labels, interior, (1.0,) * n_leaves)


def test_deep_caterpillar_newick_is_the_nested_string():
    n = 2400
    t = caterpillar(n)
    assert len(t.interior) == n - 3
    # Side {k, ..., n-1} holds leaf k and side {k+1, ..., n-1}.
    text = f"x{n - 2:04d}:1.0,x{n - 1:04d}:1.0"
    for k in range(n - 3, 1, -1):
        text = f"x{k:04d}:1.0,({text}):{0.5 + (k + 1) / n!r}"
    assert to_newick(t) == f"(x0000:1.0,x0001:1.0,({text}):{0.5 + 2 / n!r});"


def test_tree_rejects_too_many_splits():
    with pytest.raises(TreeError):
        tree5([(mask("AB"), 0.1), (mask("CD"), 0.1), (mask("ABE"), 0.1)])


def test_tree_rejects_nonpositive_interior():
    with pytest.raises(TreeError):
        tree5([(mask("AB"), 0.0)])


# ---------------------------------------------------------------------------
# Geodesic distance


def test_identical_trees_distance_zero(rng):
    t = random_tree(LABELS5, rng)
    assert bhv_distance(t, t).distance == 0.0


def test_same_topology_is_euclidean(rng):
    for _ in range(50):
        t = random_tree(LABELS5, rng)
        il = rng.uniform(0.1, 1.0, len(t.interior))
        pl = rng.uniform(0.1, 1.0, 5)
        t2 = t.with_lengths(il, pl)
        diffs = np.concatenate([
            np.array([l for _, l in t.interior]) - il,
            np.array(t.pendant) - pl,
        ])
        got = bhv_distance(t, t2)
        assert got.support == ()
        assert got.distance == pytest.approx(np.linalg.norm(diffs), abs=1e-12)


def test_single_incompatible_pair_cone_path():
    t1 = tree5([(mask("AB"), 0.3), (mask("DE"), 0.2)])
    t2 = tree5([(mask("AC"), 0.4), (mask("DE"), 0.2)])
    got = bhv_distance(t1, t2)
    assert got.distance == pytest.approx(0.7, abs=1e-15)
    assert bhv_distance_exhaustive(t1, t2) == pytest.approx(0.7, abs=1e-15)


def test_exhaustive_refuses_large_trees(rng):
    t = random_tree(tuple("ABCDEFGH"), rng)
    with pytest.raises(TreeError, match="limited to 7"):
        bhv_distance_exhaustive(t, t)


def test_universe_mismatch_raises(rng):
    t1 = random_tree(LABELS5, rng)
    t2 = random_tree(("A", "B", "C", "D", "F"), rng)
    with pytest.raises(TreeError, match="universes differ"):
        bhv_distance(t1, t2)


@pytest.mark.parametrize("lengths", [(1e-170, 1e-170), (1e160, 1e160), (1e-150, 1e150)],
                         ids=["squares-underflow", "sum-overflows", "share-underflows"])
def test_lengths_whose_cover_weights_leave_the_double_range_raise(lengths):
    """A cover weight (a square over a sum of squares) that is nan or rounds
    to 0 made the support refinement split off empty parts, which never
    ended or divided by zero; every geodesic on such a tree refuses."""
    a = tree5([(mask("AB"), lengths[0]), (mask("CD"), lengths[1])])
    b = tree5([(mask("AC"), 1.0), (mask("BD"), 1.0)])
    for pair in ((a, b), (b, a), (a, a)):
        with pytest.raises(TreeError, match="nonzero fraction of their finite sum"):
            bhv_distance(*pair)
    assert bhv_distance(b, b).distance == 0.0


def test_one_sided_incompatible_set_raises_tree_error(monkeypatch, rng):
    t = random_tree(LABELS5, rng)
    # The first split of t1 is incompatible, with no partner in t2.
    monkeypatch.setattr(treespace, "_decompose", lambda t1, t2: (0.0, 0b1, 0, [0]))
    with pytest.raises(TreeError, match="only one tree"):
        bhv_distance(t, t)


def test_geodesic_matches_exhaustive_oracle(rng):
    def contracted(tree):
        """`tree` with each interior edge contracted with probability 1/2,
        and `tree` with those edges 1e-12 long: a binary tree within 3e-12
        of the first."""
        keep = rng.random(len(tree.interior)) < 0.5
        kept = tuple(split for split, k in zip(tree.interior, keep) if k)
        return (Tree(tree.labels, kept, tree.pendant),
                tree.with_lengths([l if k else 1e-12 for (_, l), k in zip(tree.interior, keep)],
                                  tree.pendant))

    for leaves in (5, 6, 7):
        labels = tuple("ABCDEFG"[:leaves])
        for _ in range(700):
            a = random_tree(labels, rng)
            b = random_tree(labels, rng)
            assert bhv_distance(a, b).distance == pytest.approx(
                bhv_distance_exhaustive(a, b), abs=1e-9)
        # Partly resolved trees: a split of one tree compatible with every
        # split of the other, as a resolution against a polytomy, is a
        # shared coordinate from length 0.  The oracle shares that step,
        # so the nearby binary trees, which never take it, check it too.
        for _ in range(100):
            (a, a_binary), (b, b_binary) = (contracted(random_tree(labels, rng))
                                            for _ in range(2))
            got = bhv_distance(a, b).distance
            assert got == pytest.approx(bhv_distance_exhaustive(a, b), abs=1e-9)
            assert got == pytest.approx(bhv_distance_exhaustive(a_binary, b_binary), abs=1e-9)


def test_support_sequence_properties(rng):
    for _ in range(100):
        a = random_tree(tuple("ABCDEFG"), rng)
        b = random_tree(tuple("ABCDEFG"), rng)
        got = bhv_distance(a, b)
        ratios = block_ratios(got)
        assert all(x <= y + 1e-12 for x, y in zip(ratios, ratios[1:]))
        # distance bounded below by the shared-coordinate part and above
        # by the single-bend cone path
        common_sq, aside, bside = _decompose(a, b)
        cone = math.sqrt(common_sq + (_norm(aside) + _norm(bside)) ** 2)
        assert math.sqrt(common_sq) - 1e-12 <= got.distance <= cone + 1e-12


def block_ratios(result):
    """Norm ratios |A_i| / |B_i| of the support's blocks, in order."""
    return [_norm(a) / _norm(b) for a, b in result.support]


def owen_provan_violations(result, umask):
    """Names of the geodesic conditions P1-P3 the support sequence breaks."""
    support = result.support
    found = set()
    for i, (a_later, _) in enumerate(support):
        for _, b_earlier in support[:i]:
            if any(not compatible(a, b, umask) for a, _ in a_later for b, _ in b_earlier):
                found.add("P1")
    ratios = block_ratios(result)
    if any(x > y + 1e-12 for x, y in zip(ratios, ratios[1:])):
        found.add("P2")
    for apart, bpart in support:
        if len(apart) < 2 or len(bpart) < 2:
            continue
        sa, sb = _norm(apart) ** 2, _norm(bpart) ** 2
        wa = [l * l / sa for _, l in apart]
        wb = [l * l / sb for _, l in bpart]
        incompatible = [sum(1 << k for k, (b, _) in enumerate(bpart)
                            if not compatible(a, b, umask)) for a, _ in apart]
        # Every A-part C1 of a cover (bit k set: apart[k] in C1) forces
        # the B-splits incompatible with A \ C1 into the cover.
        for c1 in range(1 << len(apart)):
            weight, forced = 0.0, 0
            for k, w in enumerate(wa):
                if c1 >> k & 1:
                    weight += w
                else:
                    forced |= incompatible[k]
            weight += sum(w for k, w in enumerate(wb) if forced >> k & 1)
            if weight < 1.0 - 1e-9:
                found.add("P3")
                break
    return found


def test_support_satisfies_owen_provan_conditions_past_oracle_size():
    rng = np.random.default_rng(7)
    labels = tuple(f"t{i:02d}" for i in range(1, 13))
    trees = [random_tree(labels, rng) for _ in range(60)]
    umask = trees[0].universe_mask
    bad = {}
    for i, j in itertools.combinations(range(len(trees)), 2):
        found = owen_provan_violations(bhv_distance(trees[i], trees[j]), umask)
        if found:
            bad[i, j] = sorted(found)
    assert bad == {}


def test_metric_axioms_on_random_triples(rng):
    for _ in range(100):
        a, b, c = (random_tree(LABELS5, rng) for _ in range(3))
        dab = bhv_distance(a, b).distance
        dba = bhv_distance(b, a).distance
        assert dab == pytest.approx(dba, abs=1e-12)
        assert bhv_distance(a, c).distance <= dab + bhv_distance(b, c).distance + 1e-9
