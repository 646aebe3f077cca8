"""`bhv_distance` against the cover solver it replaced, bit for bit.

`oracle_cover` is the former `treespace._min_weight_cover`, unchanged:
Edmonds-Karp with one breadth-first search per augmenting path and
`compatible` recomputed for every pair of each cover.  The solver takes
the same augmentations in the same order, so the distance and the whole
support sequence must be identical on every pair of the hostile corpus.
A minimum cut does not depend on the order of the augmentations in exact
arithmetic, so a second test compares the augmentations themselves.
`former_bhv_distance` in conftest is the bitmask solver before flat
position lists; the solver must equal it too, and the tree-space
distance matrices, which read only the length, must equal
`bhv_distance`.
"""

import builtins
import math
import sys

import pytest

from lensdepth import treespace
from lensdepth.metrics import BHVSpace
from lensdepth.treespace import (
    _COVER_SLACK,
    bhv_distance,
    compatible,
)

from conftest import TREE_PAIRS, _decompose, _norm, former_bhv_distance


def oracle_cover(apart, bpart, umask):
    """Minimum-weight vertex cover of the bipartite incompatibility graph.

    Vertex weights are squared lengths normalized per side.  By LP
    duality the cover is a min s-t cut of the network s -> a (weight),
    a -> b (unbounded, for each incompatible pair), b -> t (weight).  A
    max flow by shortest augmenting paths (Edmonds-Karp, which also
    terminates with float capacities) gives the cut: the cover is every
    A-split the final residual graph cannot reach from s plus every
    B-split it can reach.  Returns (weight, a_indices, b_indices).
    """
    na = len(apart)
    sa, sb = sum(l * l for _, l in apart), sum(l * l for _, l in bpart)
    wa = [l * l / sa for _, l in apart]
    wb = [l * l / sb for _, l in bpart]
    res_a, res_b = wa[:], wb[:]          # residual capacities of s -> a, b -> t
    adj = [[j for j, (mb, _) in enumerate(bpart) if not compatible(ma, mb, umask)]
           for ma, _ in apart]
    flow = [[0.0] * len(bpart) for _ in apart]   # flow[i][j]: residual of b_j -> a_i
    while True:
        # Breadth-first search; node i < na is a_i, node na + j is b_j.
        pred = {i: None for i in range(na) if res_a[i] > 0.0}
        queue = list(pred)
        last = None
        for u in queue:
            if u < na:
                step = [na + j for j in adj[u]]
            elif res_b[u - na] > 0.0:
                last = u
                break
            else:
                step = [i for i in range(na) if flow[i][u - na] > 0.0]
            for v in step:
                if v not in pred:
                    pred[v] = u
                    queue.append(v)
        if last is None:
            break
        path = [last]
        while pred[path[-1]] is not None:
            path.append(pred[path[-1]])
        path.reverse()                   # a, b, a, b, ..., b
        hops = list(zip(path[0::2], path[1::2]))           # forward a -> b
        backs = list(zip(path[2::2], path[1::2]))          # reverse b -> a
        amount = min([res_a[path[0]], res_b[last - na]]
                     + [flow[i][b - na] for i, b in backs])
        res_a[path[0]] -= amount
        res_b[last - na] -= amount
        for i, b in hops:
            flow[i][b - na] += amount
        for i, b in backs:
            flow[i][b - na] -= amount
    ca = [i for i in range(na) if i not in pred]
    cb = [j for j in range(len(bpart)) if na + j in pred]
    return sum(wa[i] for i in ca) + sum(wb[j] for j in cb), ca, cb


def oracle_distance(t1, t2):
    """Distance and support of the former solver: the support refinement
    of `bhv_distance`, driven by `oracle_cover` on split tuples."""
    common_sq, a_side, b_side = _decompose(t1, t2)
    if not a_side:
        return math.sqrt(common_sq), ()
    pairs = [(a_side, b_side)]
    idx = 0
    while idx < len(pairs):
        apart, bpart = pairs[idx]
        if len(apart) == 1 or len(bpart) == 1:
            idx += 1
            continue
        weight, ca, cb = oracle_cover(apart, bpart, t1.universe_mask)
        if weight >= 1.0 - _COVER_SLACK:
            idx += 1
            continue
        c1 = tuple(apart[i] for i in ca)
        d2 = tuple(bpart[j] for j in cb)
        c2 = tuple(x for k, x in enumerate(apart) if k not in ca)
        d1 = tuple(x for k, x in enumerate(bpart) if k not in cb)
        pairs[idx:idx + 1] = [(c1, d1), (c2, d2)]
    lsq = 0.0
    for apart, bpart in pairs:
        term = _norm(apart) + _norm(bpart)
        lsq += term * term
    return math.sqrt(common_sq + lsq), tuple(pairs)


@pytest.mark.parametrize("name", sorted(TREE_PAIRS))
def test_geodesic_equals_the_search_per_path_solver(name):
    for a, b in TREE_PAIRS[name]:
        for t1, t2 in ((a, b), (b, a)):
            got = bhv_distance(t1, t2)
            distance, support = oracle_distance(t1, t2)
            assert got.distance.hex() == distance.hex()
            assert got.support == support


@pytest.mark.parametrize("name", sorted(TREE_PAIRS))
def test_solver_takes_the_oracles_augmentations_in_order(name, monkeypatch):
    # Both solvers call `min` exactly once per augmentation, for its amount.
    amounts = {}
    for module in (treespace, sys.modules[__name__]):
        log = amounts[module] = []

        def spy(*args, log=log):
            value = builtins.min(*args)
            log.append(value.hex())
            return value

        monkeypatch.setattr(module, "min", spy, raising=False)
    for a, b in TREE_PAIRS[name]:
        for t1, t2 in ((a, b), (b, a)):
            for log in amounts.values():
                log.clear()
            bhv_distance(t1, t2)
            oracle_distance(t1, t2)
            assert amounts[treespace] == amounts[sys.modules[__name__]]


@pytest.mark.parametrize("name", sorted(TREE_PAIRS))
def test_geodesic_equals_the_former_bitmask_solver(name):
    for a, b in TREE_PAIRS[name]:
        for t1, t2 in ((a, b), (b, a)):
            got, want = bhv_distance(t1, t2), former_bhv_distance(t1, t2)
            assert got.distance.hex() == want.distance.hex()
            assert got.support == want.support


@pytest.mark.parametrize("name", sorted(TREE_PAIRS))
def test_matrices_equal_bhv_distance(name):
    # Every tree of the family, duplicates kept, grouped by leaf universe.
    groups = {}
    for pair in TREE_PAIRS[name]:
        for t in pair:
            groups.setdefault(t.labels, []).append(t)
    for labels, trees in groups.items():
        space = BHVSpace(labels)
        points = space.coerce_points(trees)
        want = [[bhv_distance(*sorted((p, q), key=lambda t: t.sort_key())).distance.hex()
                 for q in trees] for p in trees]
        pair = space.pairwise(points)
        cross = space.cross_matrix(points, points)
        assert [[v.hex() for v in row] for row in cross.tolist()] == want
        assert (pair == pair.T).all() and not pair.diagonal().any()
        n = len(trees)
        assert all(pair[i, j].hex() == want[i][j] for i in range(n) for j in range(i + 1, n))
