"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them inline).

Criterion 3 and the continuity clause of criterion 9 are strict
expected failures: the stated targets contradict properties of the
estimator and of the closed-form gamma curve that the companion tests
in this suite and in test_asymptotics verify independently.  They are
kept as written rather than loosened.
"""

import json
import time

import numpy as np
import pytest

from lensdepth.asymptotics import (
    ExperimentConfig,
    clt_experiment,
    levelset_experiment,
    supnorm_experiment,
)
from lensdepth.cli import run
from lensdepth.depth import Sample, batch_depth, empirical_lens_depth
from lensdepth.dispersion import (
    PsiCurve,
    gamma,
    gamma_t_vs_normal_grid,
    strong_order,
    weak_order,
)
from lensdepth.metrics import (
    BHVSpace,
    EuclideanSpace,
    SphereSpace,
    StiefelSpace,
)
from lensdepth.treespace import (
    bhv_distance,
    parse_newick,
    to_newick,
)

from conftest import (
    bhv_distance_exhaustive,
    gamma_t_vs_normal,
    random_frames,
    random_tree,
    random_unit_vectors,
)


def report(number, ok, detail=""):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    exact = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 51))
        space = EuclideanSpace(d)
        sample = Sample(rng.standard_normal((n, d)), space)
        queries = rng.standard_normal((20, d))
        field = batch_depth(queries, sample, threads=2)
        for q in range(20):
            if field.values[q] != empirical_lens_depth(queries[q], sample):
                exact = False
    elapsed = time.perf_counter() - start
    ok = exact and elapsed < 5.0
    report(1, ok, f"(exact={exact}, {elapsed:.1f} s)")
    assert exact
    assert elapsed < 5.0


def test_criterion_2_closed_form_consistency():
    start = time.perf_counter()
    cfg = ExperimentConfig({"dist": "normal"}, (100, 400, 1600), 50, seed=202,
                           grid=((-3.0, 3.0, 0.01),), threads=2)
    rep = supnorm_experiment(cfg)
    elapsed = time.perf_counter() - start
    medians = rep.stats["sup_error"]["medians"]
    strict = all(b < a for a, b in zip(medians, medians[1:]))
    ok = strict and medians[-1] <= 0.035 and elapsed < 120.0
    report(2, ok, f"(medians={[round(m, 4) for m in medians]}, {elapsed:.0f} s)")
    assert strict
    assert medians[-1] <= 0.035
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="the product-moment covariance target (variance 1 at the centre of "
    "a symmetric law) contradicts the pairwise-count statistic itself: its "
    "conditional coverage given one endpoint is constant 1/2 there, so the "
    "scaled error is degenerate and the empirical variance is O(1/n), not 1; "
    "see the passing projection-form checks in test_asymptotics")
def test_criterion_3_limit_law_product_form_targets():
    start = time.perf_counter()
    cfg = ExperimentConfig({"dist": "normal"}, (500,), 2000, seed=303,
                           points=((0.0,), (1.0,)), pairs=1_000_000, threads=2)
    rep = clt_experiment(cfg)
    elapsed = time.perf_counter() - start
    var0 = rep.empirical_cov[0, 0]
    ratio = var0 / rep.target_cov[0, 0]
    off = rep.empirical_cov[0, 1]
    off_target = rep.target_cov[0, 1]
    off_se = rep.target_se[0, 1]
    ok = 0.85 <= ratio <= 1.15 and abs(off - off_target) <= 3 * off_se \
        and elapsed < 600.0
    report(3, ok, f"(var ratio={ratio:.4f}, off={off:.4f} vs "
                  f"target={off_target:.4f}±3·{off_se:.4f}, {elapsed:.0f} s)")
    assert elapsed < 600.0
    assert 0.85 <= ratio <= 1.15
    assert abs(off - off_target) <= 3 * off_se


def test_criterion_4_levelset_hausdorff_convergence():
    start = time.perf_counter()
    cfg = ExperimentConfig({"dist": "normal"}, (100, 400, 1600), 20, seed=404,
                           grid=((-3.0, 3.0, 0.01),), threads=2)
    rep = levelset_experiment(cfg, 0.3)
    elapsed = time.perf_counter() - start
    med_set = rep.stats["set_hausdorff"]["medians"]
    med_bdry = rep.stats["boundary_hausdorff"]["medians"]
    mono = all(b <= a for a, b in zip(med_set, med_set[1:]))
    ok = mono and med_bdry[-1] <= 0.15 and elapsed < 180.0
    report(4, ok, f"(set medians={[round(m, 4) for m in med_set]}, "
                  f"boundary at n=1600={med_bdry[-1]:.4f}, {elapsed:.0f} s)")
    assert mono
    assert med_bdry[-1] <= 0.15
    assert elapsed < 180.0


def test_criterion_5_lens_stability():
    rng = np.random.default_rng(505)
    flips = 0
    accepted = 0
    while accepted < 10_000:
        want = 10_000 - accepted
        x = rng.standard_normal((want, 2))
        y1 = rng.standard_normal((want, 2)) * 1.5
        y2 = rng.standard_normal((want, 2)) * 1.5
        r = np.linalg.norm(y1 - y2, axis=1)
        d1 = np.linalg.norm(x - y1, axis=1)
        d2 = np.linalg.norm(x - y2, axis=1)
        margin = np.minimum(r - d1, r - d2)
        delta = rng.uniform(0.005, 0.25, want)
        keep = np.abs(margin) > 3 * delta
        x, y1, y2, delta = x[keep], y1[keep], y2[keep], delta[keep]
        inside = (d1[keep] <= r[keep]) & (d2[keep] <= r[keep])
        m = len(x)
        accepted += m
        for reps in range(100):
            u1 = rng.standard_normal((m, 2))
            u1 *= (rng.uniform(0, 0.999, m) * delta
                   / np.linalg.norm(u1, axis=1))[:, None]
            u2 = rng.standard_normal((m, 2))
            u2 *= (rng.uniform(0, 0.999, m) * delta
                   / np.linalg.norm(u2, axis=1))[:, None]
            p1, p2 = y1 + u1, y2 + u2
            rp = np.linalg.norm(p1 - p2, axis=1)
            now = (np.linalg.norm(x - p1, axis=1) <= rp) \
                & (np.linalg.norm(x - p2, axis=1) <= rp)
            flips += int((now != inside).sum())
    report(5, flips == 0, f"(flips={flips} over 10^4 configs x 100 moves)")
    assert flips == 0


def test_criterion_6_gamma_properties():
    rng = np.random.default_rng(606)
    # (a) exact self-comparison on random curves
    exact_self = True
    for _ in range(100):
        k = int(rng.integers(5, 60))
        lam = np.unique(rng.uniform(0, 0.5, k + 1))
        c = PsiCurve(lam, rng.uniform(0, 3, len(lam)), "diam")
        if gamma(c, c) != 1.0:
            exact_self = False
    # (b) two-method agreement on a 5 x 100 (v, sigma) grid
    sigmas = np.arange(0.05, 5.0001, 0.05)
    quad = gamma_t_vs_normal_grid([1, 2, 3, 4, 5], sigmas, points=100_000)
    worst = 0.0
    checks = [(v, s) for v in range(1, 6) for s in sigmas]
    for (v, s) in checks[:: 5]:          # every 5th pair, still 100 pairs
        b = gamma_t_vs_normal(v, s)
        q = quad[v - 1, np.searchsorted(sigmas, s)]
        worst = max(worst, abs(q - b))
    agreement = worst <= 1e-4
    # (c) sampled self-comparison
    sample = Sample(rng.standard_normal(150), EuclideanSpace(1))
    field = batch_depth(np.linspace(-3, 3, 201).reshape(-1, 1), sample)
    lam = np.linspace(0, field.max_value, 100)
    from lensdepth.dispersion import psi_curve
    curve = psi_curve(field, "diam", lam)
    sampled_self = gamma(curve, curve) == 1.0
    # (d) implication chain over 1000 randomized curve pairs
    chain = True
    strong_seen = 0
    lam = np.linspace(0, 0.5, 40)
    for trial in range(1000):
        base = np.sort(rng.uniform(0, 2, 40))[::-1]
        if trial % 2 == 0:
            cx = PsiCurve(lam, base * rng.uniform(1.0, 2.0), "diam")
            cy = PsiCurve(lam, base, "diam")
        else:
            cx = PsiCurve(lam, rng.uniform(0, 2, 40), "diam")
            cy = PsiCurve(lam, rng.uniform(0, 2, 40), "diam")
        if strong_order(cx, cy).holds:
            strong_seen += 1
            if not weak_order(cx, cy).holds or gamma(cx, cy) != 1.0:
                chain = False
    ok = exact_self and agreement and sampled_self and chain and strong_seen >= 400
    report(6, ok, f"(self exact={exact_self}, two-method worst gap={worst:.2e}, "
                  f"chain on {strong_seen} strong pairs={chain})")
    assert exact_self
    assert agreement
    assert sampled_self
    assert chain and strong_seen >= 400


def test_criterion_7_tree_geodesics():
    rng = np.random.default_rng(707)
    # same-topology pairs are Euclidean in the edge lengths
    worst_same = 0.0
    for _ in range(500):
        t = random_tree("ABCDE", rng)
        il = rng.uniform(0.05, 1.5, len(t.interior))
        pl = rng.uniform(0.05, 1.5, 5)
        t2 = t.with_lengths(il, pl)
        diffs = np.concatenate([np.array([l for _, l in t.interior]) - il,
                                np.array(t.pendant) - pl])
        worst_same = max(worst_same, abs(bhv_distance(t, t2).distance
                                         - float(np.linalg.norm(diffs))))
    # solver equals the exhaustive support-sequence oracle
    worst_oracle = 0.0
    for k in range(500):
        leaves = "ABCDEFG"[: 5 + k % 3]
        a = random_tree(leaves, rng)
        b = random_tree(leaves, rng)
        worst_oracle = max(worst_oracle, abs(
            bhv_distance(a, b).distance - bhv_distance_exhaustive(a, b)))
    # metric axioms on random triples
    axioms = True
    for _ in range(100):
        a, b, c = (random_tree("ABCDEF", rng) for _ in range(3))
        dab = bhv_distance(a, b).distance
        dba = bhv_distance(b, a).distance
        if not (dab >= 0 and abs(dab - dba) <= 1e-9):
            axioms = False
        if bhv_distance(a, c).distance > dab + bhv_distance(b, c).distance + 1e-9:
            axioms = False
    # newick round trips
    roundtrip = True
    for k in range(1000):
        leaves = "ABCDEFG"[: 4 + k % 4]
        t = random_tree(leaves, rng)
        if parse_newick(to_newick(t)) != t:
            roundtrip = False
    ok = worst_same <= 1e-12 and worst_oracle <= 1e-9 and axioms and roundtrip
    report(7, ok, f"(same-topology dev={worst_same:.2e}, "
                  f"oracle dev={worst_oracle:.2e}, axioms={axioms}, "
                  f"roundtrip={roundtrip})")
    assert worst_same <= 1e-12
    assert worst_oracle <= 1e-9
    assert axioms
    assert roundtrip


def test_criterion_8_metric_axioms_and_isometry_invariance():
    rng = np.random.default_rng(808)
    spaces = {
        "euclidean": (EuclideanSpace(3),
                      lambda k: rng.standard_normal((k, 3))),
        "sphere": (SphereSpace(3), lambda k: random_unit_vectors(rng, k, 3)),
        "stiefel-chordal": (StiefelSpace(3, 2, "chordal"),
                            lambda k: random_frames(rng, k)),
        "stiefel-procrustes": (StiefelSpace(3, 2, "procrustes"),
                               lambda k: random_frames(rng, k)),
        "bhv": (BHVSpace(tuple("ABCDE")),
                lambda k: [random_tree("ABCDE", rng) for _ in range(k)]),
    }
    axioms_ok = True
    for name, (space, gen) in spaces.items():
        pts = gen(600)
        for k in range(200):
            p, q, r = pts[3 * k], pts[3 * k + 1], pts[3 * k + 2]
            dpq = space.distance(p, q)
            if dpq < 0 or dpq != space.distance(q, p) \
                    or space.distance(p, p) != 0.0 \
                    or space.distance(p, r) > dpq + space.distance(q, r) + 1e-9:
                axioms_ok = False

    invariant = True
    # Euclidean rigid motions
    e3 = EuclideanSpace(3)
    pts = rng.standard_normal((20, 3))
    queries = rng.standard_normal((8, 3))
    base = batch_depth(queries, Sample(pts, e3)).values
    for _ in range(100):
        q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        shift = rng.standard_normal(3)
        moved = batch_depth(queries @ q_mat.T + shift,
                            Sample(pts @ q_mat.T + shift, e3)).values
        if not np.array_equal(base, moved):
            invariant = False
    # sphere rotations
    s3 = SphereSpace(3)
    spts = random_unit_vectors(rng, 20, 3)
    squeries = random_unit_vectors(rng, 8, 3)
    sbase = batch_depth(squeries, Sample(spts, s3)).values
    for _ in range(100):
        q_mat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rp = spts @ q_mat.T
        rq = squeries @ q_mat.T
        rp /= np.linalg.norm(rp, axis=1, keepdims=True)
        rq /= np.linalg.norm(rq, axis=1, keepdims=True)
        if not np.array_equal(sbase, batch_depth(rq, Sample(rp, s3)).values):
            invariant = False
    # tree leaf relabelings
    labels = tuple("ABCDE")
    trees = [random_tree(labels, rng) for _ in range(12)]
    tbase = batch_depth(trees[9:], Sample(trees[:9], BHVSpace(labels))).values
    for _ in range(100):
        perm = rng.permutation(5)

        def relabel(t):
            text = to_newick(t)
            for i, old in enumerate(labels):
                text = text.replace(old, f"${i}$")
            for i, old in enumerate(labels):
                text = text.replace(f"${i}$", labels[perm[i]])
            return parse_newick(text)

        moved = batch_depth([relabel(t) for t in trees[9:]],
                            Sample([relabel(t) for t in trees[:9]],
                                   BHVSpace(labels))).values
        if not np.array_equal(tbase, moved):
            invariant = False
    ok = axioms_ok and invariant
    report(8, ok, f"(axioms={axioms_ok}, depth invariance={invariant})")
    assert axioms_ok
    assert invariant


def test_criterion_9_figure_grid_range_and_method_agreement(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run(["gamma-tn", "--v", "1..5", "--sigma", "0.05:5:0.05",
                "--out", str(out), "--no-timestamp"])
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    table = {}
    for line in data:
        v, sigma, two_gamma = line.split(",")
        table[(int(v), round(float(sigma), 4))] = float(two_gamma)
    in_range = all(0.0 <= g <= 2.0 for g in table.values())
    # binding acceptance: the emitted values match the independent
    # bisection method (the figure itself is not numerically readable)
    worst = 0.0
    rng = np.random.default_rng(909)
    for _ in range(40):
        v = int(rng.integers(1, 6))
        sigma = round(float(rng.choice(np.arange(0.05, 5.0001, 0.05))), 4)
        b = 2.0 * gamma_t_vs_normal(v, sigma)
        worst = max(worst, abs(table[(v, sigma)] - b))
    ok = code == 0 and len(data) == 500 and in_range and worst <= 2e-4
    report(9, ok, f"(rows={len(data)}, range ok={in_range}, "
                  f"method gap={worst:.2e})")
    assert code == 0
    assert len(data) == 500
    assert in_range
    assert worst <= 2e-4


@pytest.mark.xfail(
    strict=True,
    reason="the stated smoothness bound (adjacent-sigma jumps < 0.05) is not "
    "a property of the true curve: right above the central quantile ratio "
    "the dominance measure drops steeply (for v=5 by ~0.8 over one 0.05 "
    "step), confirmed by both independent methods")
def test_criterion_9_continuity_clause_as_stated():
    sigmas = np.arange(0.05, 5.0001, 0.05)
    table = 2.0 * gamma_t_vs_normal_grid([1, 2, 3, 4, 5], sigmas, points=100_000)
    jumps = np.abs(np.diff(table, axis=1))
    report("9b", jumps.max() < 0.05, f"(max adjacent jump={jumps.max():.3f})")
    assert jumps.max() < 0.05


def test_criterion_10_cli_determinism_across_threads(tmp_path, rng):
    from lensdepth.dataio import fmt
    sample = rng.standard_normal(60)
    queries = rng.standard_normal(25)
    spath = tmp_path / "s.csv"
    qpath = tmp_path / "q.csv"
    spath.write_text("x1\n" + "\n".join(fmt(v) for v in sample) + "\n")
    qpath.write_text("x1\n" + "\n".join(fmt(v) for v in queries) + "\n")
    config = {"experiment": "supnorm", "sampler": {"dist": "normal"},
              "n_schedule": [30, 60], "replications": 4, "seed": 17,
              "grid": [[-2.0, 2.0, 0.1]]}
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(config))
    runs = {
        "depth": ["depth", "--sample", str(spath), "--queries", str(qpath),
                  "--seed", "7"],
        "outliers": ["outliers", "--sample", str(spath), "--lambda", "0.1",
                     "--seed", "7"],
        "ddplot": ["ddplot", "--group0", str(spath), "--group1", str(qpath),
                   "--seed", "7"],
        "simulate": ["simulate", "--config", str(cpath), "--seed", "17"],
    }
    all_ok = True
    for name, argv in runs.items():
        blobs = []
        for threads in ("1", "4", "8"):
            out = tmp_path / f"{name}-{threads}.out"
            code = run(argv + ["--threads", threads, "--out", str(out),
                               "--no-timestamp"])
            assert code == 0
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            all_ok = False
    report(10, all_ok, f"(commands={sorted(runs)})")
    assert all_ok
