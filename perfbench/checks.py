"""Correctness checks on the outputs of one pass.

Each check raises `CheckError` when an op's output is missing, does not
parse, or disagrees with an independent computation:

* depth values are compared exactly with `empirical_lens_depth`, the
  library's direct double loop, on a fixed subsample of queries;
* simulate reports are recomputed in this process from the documented
  (seed, k, r) seeding with a numpy oracle of the 1-d lens predicate;
* the tree distance matrix must be exactly symmetric with a zero
  diagonal and satisfy the triangle inequality over all triples.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import norm

from lensdepth.depth import Sample, empirical_lens_depth
from lensdepth.metrics import EuclideanSpace, SphereSpace, StiefelSpace

from workloads import GRID_2D, Workload, pairs


class CheckError(Exception):
    """An op's output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_table(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    _require(len(lines) >= 2, "table has no data rows")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_json(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _floats(rows, col) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def _nonincreasing(values) -> bool:
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= 0) and np.all(np.diff(v) <= 0))


def _oracle(value: float, x, sample: Sample, exclude=None, what="depth") -> None:
    want = empirical_lens_depth(x, sample, exclude=exclude)
    _require(value == want, f"{what}: {value!r} != empirical_lens_depth {want!r}")


# ---------------------------------------------------------------------------
# 1-d Monte Carlo reports


def _lattice_1d(lo, hi, step) -> np.ndarray:
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _depth_1d(sample: np.ndarray, queries: np.ndarray, block: int = 32) -> np.ndarray:
    """Lens depth on the line by the float predicate itself:
    max(|x - a|, |x - b|) <= |a - b|, with |t| computed as sqrt(t * t)
    exactly as the Euclidean metric does."""
    i, j = np.triu_indices(len(sample), 1)
    t = sample[j] - sample[i]
    radius = np.sqrt(t * t)
    counts = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), block):
        d = sample[None, :] - queries[lo:lo + block, None]
        d = np.sqrt(d * d)
        counts[lo:lo + block] = (np.maximum(d[:, i], d[:, j]) <= radius).sum(axis=1)
    return counts / pairs(len(sample))


def _hausdorff_1d(a: np.ndarray, b: np.ndarray) -> float:
    t = b[None, :] - a[:, None]
    cross = np.sqrt(t * t)
    return float(max(cross.min(axis=1).max(), cross.min(axis=0).max()))


def _inner_boundary_1d(mask: np.ndarray) -> np.ndarray:
    padded = np.concatenate([[False], mask, [False]])
    return np.flatnonzero(mask & ~(padded[:-2] & padded[2:]))


def _replication(cfg: dict, k: int, r: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(k, r)))
    mu, sigma = float(cfg["sampler"]["mu"]), float(cfg["sampler"]["sigma"])
    return (mu + sigma * rng.standard_normal((cfg["n_schedule"][k], 1)))[:, 0]


def _truth(cfg: dict, x: np.ndarray) -> np.ndarray:
    f = norm.cdf(x, loc=float(cfg["sampler"]["mu"]), scale=float(cfg["sampler"]["sigma"]))
    return 2.0 * f * (1.0 - f)


def _check_report_shape(rep: dict, cfg: dict) -> None:
    _require(rep.get("replications") == cfg["replications"], "replication count differs")
    _require(rep.get("n_schedule", cfg["n_schedule"]) == cfg["n_schedule"],
             "n schedule differs")


def check_simulate(cfg: dict, rep: dict) -> None:
    """Recompute part of the report under the (seed, k, r) seeding: the
    last replication of the second n for the grid experiments (k != r,
    so swapped seeding keys show), every replication of the covariance
    check."""
    _check_report_shape(rep, cfg)
    kind = cfg["experiment"]
    if kind == "clt":
        pts = np.array([p[0] for p in cfg["points"]], dtype=float)
        truth = _truth(cfg, pts)
        errors = np.stack([math.sqrt(cfg["n_schedule"][-1])
                           * (_depth_1d(_replication(cfg, 0, r), pts) - truth)
                           for r in range(cfg["replications"])])
        want = np.atleast_2d(np.cov(errors.T, ddof=1))
        _require(rep["population_depth"] == truth.tolist(), "population depth differs")
        _require(rep["empirical_cov"] == want.tolist(),
                 f"empirical covariance {rep['empirical_cov']} != recomputed {want.tolist()}")
        return
    grid = _lattice_1d(*cfg["grid"][0])
    k, last = 1, cfg["replications"] - 1
    values = _depth_1d(_replication(cfg, k, last), grid)
    n_k = str(cfg["n_schedule"][k])
    for block in rep["stats"].values():
        if isinstance(block, dict):
            for per in block["per_n"].values():
                _require(len(per) == cfg["replications"], "per-n list has wrong length")
    if kind == "supnorm":
        want = float(np.max(np.abs(values - _truth(cfg, grid))))
        got = rep["stats"]["sup_error"]["per_n"][n_k][last]
        _require(got == want, f"sup error {got!r} != recomputed {want!r}")
        return
    lam = cfg["lambda"]
    s = math.sqrt(1.0 - 2.0 * lam)
    loc, scale = float(cfg["sampler"]["mu"]), float(cfg["sampler"]["sigma"])
    lo = float(norm.ppf((1.0 - s) / 2.0, loc=loc, scale=scale))
    hi = float(norm.ppf((1.0 + s) / 2.0, loc=loc, scale=scale))
    true_mask = (grid >= lo) & (grid <= hi)
    mask = values >= lam
    want_set = _hausdorff_1d(grid[mask], grid[true_mask])
    want_bdry = _hausdorff_1d(grid[_inner_boundary_1d(mask)],
                              grid[_inner_boundary_1d(true_mask)])
    got_set = rep["stats"]["set_hausdorff"]["per_n"][n_k][last]
    got_bdry = rep["stats"]["boundary_hausdorff"]["per_n"][n_k][last]
    _require(got_set == want_set, f"set Hausdorff {got_set!r} != recomputed {want_set!r}")
    _require(got_bdry == want_bdry,
             f"boundary Hausdorff {got_bdry!r} != recomputed {want_bdry!r}")


# ---------------------------------------------------------------------------
# 2-d lattice ops


def _lattice_2d() -> np.ndarray:
    axes = [_lattice_1d(*map(float, part.split(":"))) for part in GRID_2D.split(",")]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _lattice_diameter(grid: np.ndarray) -> float:
    d = grid[-1] - grid[0]
    return math.sqrt(d[0] * d[0] + d[1] * d[1])


def check_grid_2d(wl: Workload, op: str, out: dict) -> None:
    grid = _lattice_2d()
    if op == "gamma":
        rep = read_json(out["out/gamma.json"])
        _require(0.0 <= rep["gamma"] <= 1.0, f"gamma {rep['gamma']!r} outside [0, 1]")
        _require(len(rep["levels"]) == 50 and np.all(np.diff(rep["levels"]) > 0),
                 "levels are not 50 increasing values")
        for key in ("psi_x", "psi_y"):
            _require(len(rep[key]) == 50 and _nonincreasing(rep[key]),
                     f"{key} is not a nonincreasing nonnegative curve")
            # at level 0 every lattice point is a member
            _require(math.isclose(rep[key][0], _lattice_diameter(grid), rel_tol=1e-12),
                     f"{key}[0] = {rep[key][0]!r} is not the lattice diameter")
    elif op == "psi":
        _, rows = read_table(out["out/psi.csv"])
        psi = _floats(rows, 1)
        _require(len(psi) == 50 and _nonincreasing(psi), "psi curve is not nonincreasing")
        # at level 0 the inradius is the distance from the centre to the
        # virtual exterior one step outside the lattice
        _require(math.isclose(psi[0], 4.1, rel_tol=1e-9), f"psi[0] = {psi[0]!r}, not 4.1")
    else:
        _, rows = read_table(out["out/levelset.csv"])
        _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} lattice points")
        coords = np.array([[float(r[1]), float(r[2])] for r in rows])
        _require(np.array_equal(coords, grid), "row coordinates are not the lattice")
        depth = _floats(rows, 3)
        member = np.array([int(r[4]) for r in rows], dtype=bool)
        _require(np.array_equal(member, depth >= 0.3), "member flags disagree with depth")
        sample = Sample(wl.inputs["y"], EuclideanSpace(2))
        for i in (0, 3280, 2952, 4100, 6560):
            _oracle(depth[i], grid[i], sample, what=f"lattice point {i}")
        _, brows = read_table(out["out/boundary.csv"])
        got = np.array([int(r[0]) for r in brows])
        m = member.reshape(81, 81)
        p = np.pad(m, 1)
        interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
        want = np.flatnonzero((m & ~interior).ravel())
        _require(np.array_equal(got, want), "boundary indices differ from the member mask's")


# ---------------------------------------------------------------------------
# Tree distances


def treedist_matrix(data: bytes) -> np.ndarray:
    header, rows = read_table(data)
    _require(len(rows) == len(header) - 1, "tree matrix is not square")
    return np.array([[float(v) for v in r[1:]] for r in rows])


def check_treedist(wl: Workload, op: str, out: dict) -> None:
    d = treedist_matrix(out["out/treedist.csv"])
    _require(d.shape == (60, 60), f"matrix shape {d.shape}")
    _require(bool(np.all(np.isfinite(d)) and np.all(d >= 0)), "negative or non-finite entry")
    _require(np.array_equal(d, d.T), "matrix is not exactly symmetric")
    _require(not np.any(np.diag(d)), "diagonal is not zero")
    slack = 1e-9 * max(1.0, float(d.max()))
    worst = (d[:, None, :] - d[:, :, None] - d[None, :, :]).max()
    _require(worst <= slack, f"triangle inequality broken by {worst!r}")


# ---------------------------------------------------------------------------
# Manifold ops


def check_manifold(wl: Workload, op: str, out: dict) -> None:
    s0 = Sample(wl.inputs["s0"], SphereSpace(3))
    if op == "ddplot":
        _, rows = read_table(out["out/ddplot.csv"])
        n0, n1 = len(s0.points), len(wl.inputs["s1"])
        _require(len(rows) == n0 + n1, f"{len(rows)} rows for {n0 + n1} points")
        _require([r[1] for r in rows] == ["0"] * n0 + ["1"] * n1, "group labels differ")
        s1 = Sample(wl.inputs["s1"], SphereSpace(3))
        for grp, own, other, j in ((0, s0, s1, 7), (1, s1, s0, 11)):
            row, x = rows[grp * n0 + j], own.points[j]
            _oracle(float(row[2 + grp]), x, own, exclude=j, what=f"group {grp} point {j} own")
            _oracle(float(row[3 - grp]), x, other, what=f"group {grp} point {j} other")
    elif op == "levelset":
        _, rows = read_table(out["out/levelset.csv"])
        _require(len(rows) == len(s0.points), "row count differs from the sample")
        depth = _floats(rows, 4)
        member = np.array([int(r[5]) for r in rows], dtype=bool)
        _require(np.array_equal(member, depth >= 0.3), "member flags disagree with depth")
        _oracle(depth[5], s0.points[5], s0, exclude=5, what="sample point 5")
    else:
        _, rows = read_table(out["out/outliers.csv"])
        frames = Sample(wl.inputs["frames"], StiefelSpace(3, 2, mode="procrustes"))
        _require(len(rows) == len(frames.points), "row count differs from the sample")
        depth = _floats(rows, 1)
        flag = np.array([int(r[2]) for r in rows], dtype=bool)
        _require(np.array_equal(flag, depth < 0.1), "outlier flags disagree with depth")
        for i in (0, 150):
            _oracle(depth[i], frames.points[i], frames, exclude=i, what=f"frame {i}")


def check_mc(wl: Workload, op: str, out: dict) -> None:
    check_simulate(wl.inputs["configs"][op], read_json(out[f"out/{op}.json"]))


CHECKS = {
    "mc-1d": check_mc,
    "grid-2d": check_grid_2d,
    "bhv-trees": check_treedist,
    "manifold-loo": check_manifold,
}


def check_op(wl: Workload, op: str, out: dict) -> None:
    """Raise CheckError unless the op's outputs (path -> bytes) are right."""
    try:
        CHECKS[wl.name](wl, op, out)
    except (KeyError, IndexError, TypeError, ValueError, UnicodeDecodeError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
