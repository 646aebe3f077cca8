"""Workload definitions: seeded input generation, the CLI ops of one pass,
and the work each pass declares.

Inputs are generated here with numpy and scipy, never with lensdepth, so a
change to the library cannot change what the benchmark feeds it.  Every
op is a list of CLI arguments run from the work directory; all paths in
it are relative, so traced and untraced runs see identical arguments and
write byte-identical provenance headers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

GRID_2D = "-4:4:0.1,-4:4:0.1"          # 81 x 81 lattice, 6,561 points
GRID_1D = [[-3.0, 3.0, 0.01]]          # 601 points
MC_N = [100, 400, 1600]
# One replication per n: with more, replications overlap in the thread
# pool and the op's peak RSS depends on how they happen to interleave.
MC_REPLICATIONS = 1
CLT_N = 500
CLT_REPLICATIONS = 500                 # the harness's hard minimum
SPHERE_N = 500
FRAMES_N = 300
TREES_N = 60
TREE_LEAVES = 12


@dataclass
class Op:
    name: str
    argv: list[str]
    outputs: list[str]                  # relative output paths


@dataclass
class Workload:
    name: str
    threads: int
    ops: list[Op]
    work: int                           # declared work units per pass
    work_unit: str                      # "pair_cmp" or "geodesic"
    inputs: dict = field(default_factory=dict)   # generated arrays, for checks


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _points_csv(path: Path, pts: np.ndarray) -> None:
    _write_csv(path, [f"x{i + 1}" for i in range(pts.shape[1])], pts)


def _common(op: str, out: str, seed: int, threads: int) -> list[str]:
    return [op, "--seed", str(seed), "--threads", str(threads),
            "--no-timestamp", "--out", out]


def _normal_rqmc(rng, n, dim) -> np.ndarray:
    """Standard normal points from a randomly scrambled Halton sequence.

    The seed moves every point, but the empirical law stays close to the
    normal for every seed, so the shape of the depth field, and with it
    the level-set work, hardly varies between seeds."""
    u = qmc.Halton(d=dim, scramble=True, seed=rng).random(n)
    return ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))


def _unit_rows(rng, n, centre, spread) -> np.ndarray:
    v = np.asarray(centre, dtype=float) + spread * rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _random_newick(rng, labels) -> str:
    """Random binary unrooted tree by uniform cluster joins, written with
    a trifurcating root and 17-digit branch lengths."""
    clusters = [f"{lab}:{rng.uniform(0.1, 1.0)!r}" for lab in labels]
    while len(clusters) > 3:
        i, j = sorted(rng.choice(len(clusters), size=2, replace=False).tolist())
        joined = f"({clusters[i]},{clusters[j]}):{rng.uniform(0.1, 1.0)!r}"
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [joined]
    return "(" + ",".join(clusters) + ");"


def mc_1d(workdir: Path, seed: int, threads: int) -> Workload:
    base = {"sampler": {"dist": "normal", "mu": 0, "sigma": 1}, "seed": seed}
    configs = {
        "supnorm": dict(base, experiment="supnorm", n_schedule=MC_N,
                        replications=MC_REPLICATIONS, grid=GRID_1D),
        "levelset": dict(base, experiment="levelset", **{"lambda": 0.3},
                         n_schedule=MC_N, replications=MC_REPLICATIONS, grid=GRID_1D),
        "clt": dict(base, experiment="clt", n_schedule=[CLT_N],
                    replications=CLT_REPLICATIONS, points=[[0.0], [1.0]]),
    }
    ops = []
    for name, cfg in configs.items():
        (workdir / "in" / f"{name}.json").write_text(json.dumps(cfg, indent=1) + "\n")
        out = f"out/{name}.json"
        ops.append(Op(name, _common("simulate", out, seed, threads)
                      + ["--config", f"in/{name}.json"], [out]))
    grid_pts = 601
    grid_work = 2 * MC_REPLICATIONS * grid_pts * sum(pairs(n) for n in MC_N)
    clt_work = CLT_REPLICATIONS * 2 * pairs(CLT_N)
    return Workload("mc-1d", threads, ops, grid_work + clt_work, "pair_cmp",
                    {"configs": configs})


def grid_2d(workdir: Path, seed: int, threads: int) -> Workload:
    rng = _rng(seed, 2)
    x = _normal_rqmc(rng, 300, 2)
    y = 1.3 * _normal_rqmc(rng, 300, 2)
    _points_csv(workdir / "in" / "x.csv", x)
    _points_csv(workdir / "in" / "y.csv", y)
    grid = ["--grid=" + GRID_2D, "--levels", "50"]
    ops = [
        Op("gamma", _common("gamma", "out/gamma.json", seed, threads)
           + ["--x", "in/x.csv", "--y", "in/y.csv", "--psi", "diam"] + grid,
           ["out/gamma.json"]),
        Op("psi", _common("psi", "out/psi.csv", seed, threads)
           + ["--sample", "in/x.csv", "--psi", "inradius"] + grid, ["out/psi.csv"]),
        Op("levelset", _common("levelset", "out/levelset.csv", seed, threads)
           + ["--sample", "in/y.csv", "--lambda", "0.3", "--grid=" + GRID_2D,
              "--boundary-out", "out/boundary.csv"],
           ["out/levelset.csv", "out/boundary.csv"]),
    ]
    m = 81 * 81
    work = 4 * m * pairs(300)           # gamma: two fields; psi and levelset: one
    return Workload("grid-2d", threads, ops, work, "pair_cmp", {"x": x, "y": y})


def bhv_trees(workdir: Path, seed: int, threads: int) -> Workload:
    rng = _rng(seed, 3)
    labels = [f"t{i:02d}" for i in range(1, TREE_LEAVES + 1)]
    lines = [_random_newick(rng, labels) for _ in range(TREES_N)]
    (workdir / "in" / "trees.nwk").write_text("\n".join(lines) + "\n")
    ops = [Op("treedist", _common("treedist", "out/treedist.csv", seed, threads)
              + ["--in", "in/trees.nwk"], ["out/treedist.csv"])]
    return Workload("bhv-trees", threads, ops, pairs(TREES_N), "geodesic")


def manifold_loo(workdir: Path, seed: int, threads: int) -> Workload:
    rng = _rng(seed, 4)
    s0 = _unit_rows(rng, SPHERE_N, (0.0, 0.0, 1.0), 0.45)
    s1 = _unit_rows(rng, SPHERE_N, (0.2, 0.0, 1.0), 0.6)
    frames = np.stack([np.linalg.qr(rng.standard_normal((3, 2)))[0]
                       for _ in range(FRAMES_N)])
    _points_csv(workdir / "in" / "s0.csv", s0)
    _points_csv(workdir / "in" / "s1.csv", s1)
    _write_csv(workdir / "in" / "frames.csv",
               [f"m{i}{j}" for i in (1, 2, 3) for j in (1, 2)], frames.reshape(FRAMES_N, 6))
    ops = [
        Op("ddplot", _common("ddplot", "out/ddplot.csv", seed, threads)
           + ["--metric", "sphere", "--group0", "in/s0.csv", "--group1", "in/s1.csv"],
           ["out/ddplot.csv"]),
        Op("levelset", _common("levelset", "out/levelset.csv", seed, threads)
           + ["--metric", "sphere", "--sample", "in/s0.csv", "--lambda", "0.3"],
           ["out/levelset.csv"]),
        Op("outliers", _common("outliers", "out/outliers.csv", seed, threads)
           + ["--metric", "stiefel-procrustes", "--shape", "3x2",
              "--sample", "in/frames.csv", "--lambda", "0.1"],
           ["out/outliers.csv"]),
    ]
    n = SPHERE_N
    work = 4 * n * pairs(n) + n * pairs(n) + FRAMES_N * pairs(FRAMES_N)
    return Workload("manifold-loo", threads, ops, work, "pair_cmp",
                    {"s0": s0, "s1": s1, "frames": frames})


# name -> (input generator, --threads value capped by the core count)
WORKLOADS = {
    "mc-1d": (mc_1d, 2),
    "grid-2d": (grid_2d, 2),
    "bhv-trees": (bhv_trees, 1),
    "manifold-loo": (manifold_loo, 1),
}


def build(name: str, workdir: Path, seed: int, nproc: int) -> Workload:
    generate, threads = WORKLOADS[name]
    (workdir / "in").mkdir(parents=True)
    (workdir / "out").mkdir()
    return generate(workdir, seed, max(1, min(threads, nproc)))
