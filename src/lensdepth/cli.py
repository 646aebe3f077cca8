"""Command-line interface.

Every run embeds a provenance header (version, seed, config digest) in
its outputs, writes files atomically, and is byte-reproducible for a
fixed seed regardless of `--threads` (pass `--no-timestamp` to also
drop the timestamp comment).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, analysis, dataio, dispersion, levelsets
from .asymptotics import ExperimentError, run_config
from .dataio import DataError
from .depth import (DepthError, Sample, batch_depth, loo_depth_against, pooled_depth,
                    self_depth_field)
from .levelsets import KnnGrid, LevelSetError
from .metrics import (
    BHVSpace,
    EuclideanSpace,
    MetricError,
    SphereSpace,
    StiefelSpace,
)
from .treespace import NewickError, TreeError

METRIC_NAMES = ("euclidean", "sphere", "stiefel-chordal", "stiefel-procrustes", "bhv")
_OUTPUT_KEYS = ("out", "boundary_out", "svg")
_NON_SEMANTIC_KEYS = ("threads", "no_timestamp", "func")


class CliError(ValueError):
    """Bad CLI input that is not an argparse usage error."""


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed recorded in outputs")
    parser.add_argument("--threads", type=_thread_count, default=1,
                        help="worker thread cap, at most the core count "
                             "(never changes results)")
    parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp comment for byte-stable reruns")


def _metric_args(parser: argparse.ArgumentParser):
    parser.add_argument("--metric", choices=METRIC_NAMES, default="euclidean")
    parser.add_argument("--shape", default=None,
                        help="frame shape for stiefel metrics, e.g. 3x2")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lensdepth",
        description="Lens depth, depth level sets, and dispersion orders "
                    "over metric spaces.")
    top.add_argument("--version", action="version", version=f"lensdepth {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depth", help="evaluate depths of query points")
    _metric_args(p)
    p.add_argument("--sample", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--leave-one-out", action="store_true",
                   help="exclude a query's own pairs when it matches a sample point")
    _common(p)
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("levelset", help="extract a depth level set and its boundary")
    _metric_args(p)
    p.add_argument("--sample", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid", default=None, help="evaluation lattice lo:hi:step[,...]; use --grid=-3:3:0.1 for negative bounds")
    p.add_argument("--knn", type=int, default=8,
                   help="neighbor count when evaluating on the sample points")
    p.add_argument("--boundary-out", default=None)
    _common(p)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("psi", help="level sweep of a set summary")
    _metric_args(p)
    p.add_argument("--sample", required=True)
    p.add_argument("--psi", choices=dispersion.PSI_KINDS, required=True)
    p.add_argument("--lambdas", default=None, help="level range lo:hi:step")
    p.add_argument("--levels", type=int, default=200)
    p.add_argument("--grid", default=None)
    p.add_argument("--reference", default=None, help="reference sample (volume)")
    p.add_argument("--reference-mass", type=float, default=1.0)
    _common(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("gamma", help="dominance coefficient of two samples")
    _metric_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--psi", choices=("diam", "inradius"), default="diam")
    p.add_argument("--lambdas", default=None, help="level range lo:hi:step")
    p.add_argument("--levels", type=int, default=200)
    p.add_argument("--grid", default=None)
    _common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("order", help="dispersion-order verdict for two samples")
    _metric_args(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--relation", choices=("spread", "strong", "weak", "giovagnoli"),
                   required=True)
    p.add_argument("--psi", choices=("diam", "inradius"), default="diam")
    p.add_argument("--lambdas", default=None, help="level range lo:hi:step")
    p.add_argument("--levels", type=int, default=200)
    p.add_argument("--grid", default=None)
    p.add_argument("--tol", type=float, default=0.0)
    _common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("gamma-tn", help="t-vs-normal gamma table")
    p.add_argument("--v", required=True, help="degrees of freedom, e.g. 3 or 1..5")
    p.add_argument("--sigma", required=True, help="sigma value or range lo:hi:step")
    p.add_argument("--points", type=int, default=100_000,
                   help="quadrature points per gamma value")
    _common(p)
    p.set_defaults(func=cmd_gamma_tn)

    p = sub.add_parser("ddplot", help="depth-depth coordinates for two groups")
    _metric_args(p)
    p.add_argument("--group0", required=True)
    p.add_argument("--group1", required=True)
    p.add_argument("--points", default=None, help="optional explicit query points")
    p.add_argument("--svg", default=None, help="also render a scatter plot")
    _common(p)
    p.set_defaults(func=cmd_ddplot)

    p = sub.add_parser("outliers", help="points below a depth level")
    _metric_args(p)
    p.add_argument("--sample", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.10)
    _common(p)
    p.set_defaults(func=cmd_outliers)

    p = sub.add_parser("diam-by-group", help="per-group level-set diameter curves")
    _metric_args(p)
    p.add_argument("--groups", required=True, help="directory of group files")
    p.add_argument("--lambdas", default=None)
    p.add_argument("--levels", type=int, default=50)
    p.add_argument("--svg", default=None)
    _common(p)
    p.set_defaults(func=cmd_diam_by_group)

    p = sub.add_parser("treedist", help="tree distance matrix from a Newick file")
    p.add_argument("--in", dest="input", required=True)
    _common(p)
    p.set_defaults(func=cmd_treedist)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment config")
    p.add_argument("--config", required=True)
    _common(p)
    p.set_defaults(func=cmd_simulate)
    return top


def _provenance(args) -> dict:
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in _OUTPUT_KEYS and k not in _NON_SEMANTIC_KEYS}
    payload = {k: (v if isinstance(v, (int, float, str, bool, type(None))) else str(v))
               for k, v in payload.items()}
    return dataio.provenance(payload, getattr(args, "seed", None),
                             getattr(args, "no_timestamp", False))


def _write_rows(args, header, rows):
    prov = _provenance(args)
    if args.format == "json":
        records = [dict(zip(header, row)) for row in rows]
        dataio.write_json(args.out, {"rows": records}, prov)
    else:
        dataio.write_table(args.out, header, rows, prov)


def _read_points(path, metric, shape):
    """The raw points of a file for `metric`, and the space the file's
    first tree or column count implies; the depth functions validate the
    points against whichever sample's space they meet."""
    if metric == "bhv":
        trees, _ = dataio.read_newick_file(path)
        return trees, BHVSpace(trees[0].labels)
    if metric.startswith("stiefel"):
        if shape is None:
            raise CliError("stiefel metrics need --shape, e.g. --shape 3x2")
        d, k = dataio.parse_shape(shape)
        pts = dataio.read_points_csv(path, shape=(d, k))
        return pts, StiefelSpace(d, k, mode=metric.split("-", 1)[1])
    pts = dataio.read_points_csv(path)
    dim = pts.shape[1]
    return pts, EuclideanSpace(dim) if metric == "euclidean" else SphereSpace(dim)


def _load_sample(path, metric, shape) -> Sample:
    return Sample(*_read_points(path, metric, shape))


def _load_pair(first, second, args) -> tuple[Sample, Sample]:
    """Two samples in the space of the first file: points of the second
    that do not belong to it fail there, as `--queries` points do."""
    sx = _load_sample(first, args.metric, args.shape)
    return sx, Sample(_read_points(second, args.metric, args.shape)[0], sx.space)


def _coord_header(points) -> list[str]:
    if points.ndim == 1:            # trees have no coordinates
        return []
    if points.ndim == 2:
        return [f"x{i+1}" for i in range(points.shape[1])]
    return [f"m{i+1}{j+1}" for i in range(points.shape[1])
            for j in range(points.shape[2])]


def _coords(points, i):
    return [] if points.ndim == 1 else list(points[i].ravel())


# ---------------------------------------------------------------------------
# Handlers


def cmd_depth(args) -> int:
    sample = _load_sample(args.sample, args.metric, args.shape)
    queries = _read_points(args.queries, args.metric, args.shape)[0]
    if args.leave_one_out:
        values = loo_depth_against(queries, sample, threads=args.threads)
    else:
        values = batch_depth(queries, sample, threads=args.threads).values
    _write_rows(args, ["index", "depth"],
                [(i, v) for i, v in enumerate(values)])
    return 0


def cmd_levelset(args) -> int:
    sample = _load_sample(args.sample, args.metric, args.shape)
    if args.grid is not None:
        field = batch_depth(dataio.parse_grid_spec(args.grid), sample, threads=args.threads)
    else:
        field = self_depth_field(sample, threads=args.threads)
    eval_points = field.points
    knn = None
    if args.boundary_out and args.grid is None:
        # Off the line, the depth field has already cached the sample's
        # distance matrix, which the kNN graph reads.  Built before any
        # output is written, so a bad --knn leaves no partial output.
        knn = KnnGrid(sample, k=args.knn)
    ls = levelsets.level_set(field, args.lam)
    mask = ls.member_mask
    header = ["index"] + _coord_header(eval_points) + ["depth", "member"]
    rows = [[i] + _coords(eval_points, i) + [field.values[i], int(mask[i])]
            for i in range(len(field.values))]
    _write_rows(args, header, rows)
    if args.boundary_out:
        boundary = (levelsets.boundary_points(ls) if knn is None
                    else levelsets.inner_boundary(mask, knn))
        brows = [[int(i)] + _coords(eval_points, int(i)) for i in boundary]
        prov = _provenance(args)
        dataio.write_table(args.boundary_out, ["index"] + _coord_header(eval_points),
                           brows, prov)
    return 0


def _lambda_grid(args, *fields):
    if args.lambdas is not None:
        grid = dataio.parse_float_range(args.lambdas)
        if len(grid) < 2:
            raise CliError("--lambdas must be a range with at least 2 levels")
        return grid
    return dispersion.default_lambda_grid(*fields, count=args.levels)


def cmd_psi(args) -> int:
    sample = _load_sample(args.sample, args.metric, args.shape)
    if args.grid is not None:
        field = batch_depth(dataio.parse_grid_spec(args.grid), sample, threads=args.threads)
    else:
        field = self_depth_field(sample, threads=args.threads)
    reference = None
    if args.psi == "volume":
        if args.reference is None:
            raise CliError("volume sweeps need --reference points")
        ref_pts = _read_points(args.reference, args.metric, args.shape)[0]
        reference = Sample(ref_pts, sample.space)
    lambdas = _lambda_grid(args, field)
    curve = dispersion.psi_curve(field, args.psi, lambdas, reference=reference,
                                 reference_mass=args.reference_mass)
    _write_rows(args, ["lambda", "psi"], list(zip(curve.lambdas, curve.values)))
    return 0


def _two_sample_curves(args):
    sx, sy = _load_pair(args.x, args.y, args)
    if args.grid is not None:
        grid = dataio.parse_grid_spec(args.grid)
        fx = batch_depth(grid, sx, threads=args.threads)
        fy = batch_depth(grid, sy, threads=args.threads)
    else:
        # Off the line the counts and the curves share one pooled matrix.
        fx, fy = pooled_depth(sx, sy, threads=args.threads)
    lambdas = _lambda_grid(args, fx, fy)
    return (dispersion.psi_curve(fx, args.psi, lambdas),
            dispersion.psi_curve(fy, args.psi, lambdas))


def cmd_gamma(args) -> int:
    cx, cy = _two_sample_curves(args)
    value = dispersion.gamma(cx, cy)
    prov = _provenance(args)
    dataio.write_json(args.out, {
        "gamma": value,
        "psi": args.psi,
        "region": cx.region,
        "levels": [float(v) for v in cx.lambdas],
        "psi_x": [float(v) for v in cx.values],
        "psi_y": [float(v) for v in cy.values],
    }, prov)
    return 0


def cmd_order(args) -> int:
    if args.relation == "giovagnoli":
        verdict = dispersion.giovagnoli_order(*_load_pair(args.x, args.y, args),
                                              tol=args.tol)
    else:
        cx, cy = _two_sample_curves(args)
        fn = {"spread": dispersion.spread_out_ge,
              "strong": dispersion.strong_order,
              "weak": dispersion.weak_order}[args.relation]
        verdict = fn(cx, cy, tol=args.tol)
    prov = _provenance(args)
    dataio.write_json(args.out, {
        "relation": verdict.relation,
        "holds": verdict.holds,
        "witness": verdict.witness,
        "margin": verdict.margin,
        "region": verdict.region,
    }, prov)
    return 0


def cmd_gamma_tn(args) -> int:
    vs = dataio.parse_int_range(args.v)
    sigmas = dataio.parse_float_range(args.sigma)
    sigmas = sigmas[sigmas > 0]
    if len(sigmas) == 0:
        raise CliError("sigma range contains no positive values")
    table = dispersion.gamma_t_vs_normal_grid(vs, sigmas, points=args.points)
    rows = []
    for i, v in enumerate(vs):
        for j, sigma in enumerate(sigmas):
            rows.append((v, sigma, 2.0 * table[i, j]))
    _write_rows(args, ["v", "sigma", "two_gamma"], rows)
    return 0


def cmd_ddplot(args) -> int:
    s0, s1 = _load_pair(args.group0, args.group1, args)
    points = None
    if args.points is not None:
        points = _read_points(args.points, args.metric, args.shape)[0]
    records = analysis.depth_depth(s0, s1, points=points, threads=args.threads)
    rows = [(r.index, "" if r.group is None else r.group, r.depth0, r.depth1)
            for r in records]
    _write_rows(args, ["index", "group", "depth0", "depth1"], rows)
    if args.svg:
        groups: dict[str, list] = {}
        for r in records:
            groups.setdefault(f"group {r.group}", []).append((r.depth0, r.depth1))
        dataio.atomic_write_text(args.svg, dataio.svg_scatter(
            groups, xlabel="depth in group 0", ylabel="depth in group 1"))
    return 0


def cmd_outliers(args) -> int:
    sample = _load_sample(args.sample, args.metric, args.shape)
    field = self_depth_field(sample, threads=args.threads)
    flagged = set(analysis.outliers(field, args.lam).tolist())
    rows = [(i, field.values[i], int(i in flagged))
            for i in range(len(field.values))]
    _write_rows(args, ["index", "depth", "outlier"], rows)
    return 0


def cmd_diam_by_group(args) -> int:
    directory = args.groups
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise DataError(f"{directory}: {exc.strerror or exc}") from None
    groups: dict[str, Sample] = {}
    for name in names:
        path = os.path.join(directory, name)
        stem, ext = os.path.splitext(name)
        if ext == ".nwk":
            groups[stem] = _load_sample(path, "bhv", None)
        elif ext == ".csv":
            groups[stem] = _load_sample(path, args.metric, args.shape)
    if not groups:
        raise DataError(f"{directory}: no .csv or .nwk group files")
    fields = {label: self_depth_field(sample, threads=args.threads)
              for label, sample in groups.items()}
    lambdas = _lambda_grid(args, *fields.values())
    curves = analysis.diameter_curve_by_group(fields, lambdas)
    rows = []
    for label in sorted(curves):
        for lam, val in zip(curves[label].lambdas, curves[label].values):
            rows.append((label, lam, val))
    _write_rows(args, ["group", "lambda", "psi"], rows)
    if args.svg:
        dataio.atomic_write_text(args.svg, dataio.svg_curves(
            {label: (c.lambdas, c.values) for label, c in curves.items()},
            ylabel="level-set diameter"))
    return 0


def cmd_treedist(args) -> int:
    trees, numbers = dataio.read_newick_file(args.input)
    space = BHVSpace(trees[0].labels)
    sample = Sample(trees, space)
    dmat = sample.distance_matrix
    header = ["tree"] + [str(n) for n in numbers]
    rows = [[str(numbers[i])] + list(dmat[i]) for i in range(len(trees))]
    _write_rows(args, header, rows)
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise DataError(f"{args.config}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.config}: {exc}") from None
    config.setdefault("seed", args.seed)
    config["threads"] = args.threads
    report = run_config(config)
    prov = _provenance(args)
    dataio.write_json(args.out, report, prov)
    return 0


_KNOWN_ERRORS = (CliError, DataError, DepthError, LevelSetError, MetricError,
                 TreeError, NewickError, ExperimentError,
                 dispersion.DispersionError)

# Flags whose values may start with a dash (negative grid bounds); their
# following token is folded into --flag=value form so argparse does not
# mistake it for an option.
_DASH_VALUE_FLAGS = {"--grid", "--lambdas", "--sigma"}


def _fold_dash_values(argv):
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _DASH_VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and any(ch.isdigit() for ch in argv[i + 1])):
            out.append(arg + "=" + argv[i + 1])
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(_fold_dash_values(list(argv)))
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"lensdepth: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"lensdepth: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
