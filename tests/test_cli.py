import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lensdepth import __version__
from lensdepth.cli import METRIC_NAMES, run
from lensdepth.dataio import fmt
from lensdepth.dispersion import gamma_t_vs_normal_grid
from lensdepth.treespace import to_newick

from conftest import negate_zeros, random_tree, zero_rich_points

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_points(path, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1:
        pts = pts.T
    header = ",".join(f"x{i+1}" for i in range(pts.shape[1]))
    lines = [header] + [",".join(fmt(v) for v in row) for row in pts]
    path.write_text("\n".join(lines) + "\n")


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_depth_command_brute_force_values(workdir):
    write_points(workdir / "s.csv", [0.0, 1.0, 2.0])
    code = run(["depth", "--metric", "euclidean", "--sample", "s.csv",
                "--queries", "s.csv", "--out", "depth.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "depth.csv")
    assert rows[0] == "index,depth"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert values == [2 / 3, 1.0, 2 / 3]


def test_unknown_flag_exits_2_without_output(workdir):
    write_points(workdir / "s.csv", [0.0, 1.0])
    with pytest.raises(SystemExit) as err:
        run(["depth", "--metric", "euclidean", "--sample", "s.csv",
             "--queries", "s.csv", "--out", "x.csv", "--frobnicate"])
    assert err.value.code == 2
    assert not (workdir / "x.csv").exists()


def test_missing_file_exit_1(workdir, capsys):
    code = run(["depth", "--sample", "missing.csv", "--queries", "missing.csv",
                "--out", "x.csv"])
    assert code == 1
    assert "missing.csv" in capsys.readouterr().err
    assert not (workdir / "x.csv").exists()


def test_depth_leave_one_out_rejects_two_point_sample(workdir, capsys):
    write_points(workdir / "s.csv", [0.0, 1.0])
    write_points(workdir / "q.csv", [0.0, 0.5])
    code = run(["depth", "--metric", "euclidean", "--sample", "s.csv",
                "--queries", "q.csv", "--leave-one-out", "--out", "d.csv"])
    assert code != 0
    assert "leave-one-out depth needs n >= 3" in capsys.readouterr().err
    assert not (workdir / "d.csv").exists()


def test_gamma_tn_single_row_matches_module(workdir):
    code = run(["gamma-tn", "--v", "3", "--sigma", "1.0",
                "--out", "tn.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "tn.csv")
    assert rows[0] == "v,sigma,two_gamma"
    v, sigma, two_gamma = rows[1].split(",")
    assert (int(v), float(sigma)) == (3, 1.0)
    assert float(two_gamma) == 2.0 * gamma_t_vs_normal_grid([3], [1.0])[0, 0]


def test_gamma_tn_range_filters_nonpositive_sigma(workdir):
    code = run(["gamma-tn", "--v", "1..2", "--sigma", "0:0.2:0.1",
                "--points", "2000", "--out", "tn.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "tn.csv")
    sigmas = {float(r.split(",")[1]) for r in rows[1:]}
    assert sigmas == {0.1, 0.2}
    assert len(rows) == 1 + 4


def test_levelset_and_boundary_outputs(workdir, rng):
    write_points(workdir / "s.csv", rng.standard_normal(80))
    code = run(["levelset", "--metric", "euclidean", "--sample", "s.csv",
                "--lambda", "0.2", "--grid=-3:3:0.1",
                "--out", "ls.csv", "--boundary-out", "bd.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "ls.csv")
    assert rows[0] == "index,x1,depth,member"
    members = [r for r in rows[1:] if r.endswith(",1")]
    assert len(members) > 0
    brows = data_lines(workdir / "bd.csv")
    assert len(brows) - 1 <= 4      # an interval has a thin boundary


def test_psi_sweep_monotone(workdir, rng):
    write_points(workdir / "s.csv", rng.standard_normal(60))
    code = run(["psi", "--metric", "euclidean", "--sample", "s.csv",
                "--psi", "diam", "--levels", "20",
                "--out", "psi.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "psi.csv")
    assert rows[0] == "lambda,psi"
    psis = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(psis, psis[1:]))


def test_gamma_command_self_comparison(workdir, rng):
    write_points(workdir / "x.csv", rng.standard_normal(40))
    code = run(["gamma", "--metric", "euclidean", "--x", "x.csv", "--y", "x.csv",
                "--psi", "diam", "--out", "g.json", "--no-timestamp"])
    assert code == 0
    body = json.loads((workdir / "g.json").read_text())
    assert body["gamma"] == 1.0
    assert body["provenance"]["version"]


def test_order_command_giovagnoli(workdir, rng):
    pts = rng.standard_normal(30)
    write_points(workdir / "x.csv", pts)
    write_points(workdir / "y.csv", pts / 2)
    code = run(["order", "--metric", "euclidean", "--x", "x.csv", "--y", "y.csv",
                "--relation", "giovagnoli", "--out", "v.json", "--no-timestamp"])
    assert code == 0
    body = json.loads((workdir / "v.json").read_text())
    assert body["holds"] is True and body["witness"] is None


def test_ddplot_with_svg(workdir, rng):
    write_points(workdir / "a.csv", rng.standard_normal((20, 2)))
    write_points(workdir / "b.csv", rng.standard_normal((20, 2)) + 2.0)
    code = run(["ddplot", "--metric", "euclidean", "--group0", "a.csv",
                "--group1", "b.csv", "--out", "dd.csv", "--svg", "dd.svg",
                "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "dd.csv")
    assert rows[0] == "index,group,depth0,depth1"
    assert len(rows) == 41
    assert (workdir / "dd.svg").read_text().startswith("<svg")


def test_outliers_command(workdir, rng):
    write_points(workdir / "s.csv", rng.standard_normal(50))
    code = run(["outliers", "--metric", "euclidean", "--sample", "s.csv",
                "--lambda", "0.10", "--out", "o.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "o.csv")
    assert rows[0] == "index,depth,outlier"
    flags = [r.split(",")[2] for r in rows[1:]]
    assert set(flags) <= {"0", "1"}


def test_diam_by_group(workdir, rng):
    gdir = workdir / "groups"
    gdir.mkdir()
    write_points(gdir / "y1.csv", rng.standard_normal(25))
    write_points(gdir / "y2.csv", rng.standard_normal(25) * 2)
    code = run(["diam-by-group", "--metric", "euclidean", "--groups", str(gdir),
                "--levels", "10", "--out", "diam.csv", "--svg", "diam.svg",
                "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "diam.csv")
    assert rows[0] == "group,lambda,psi"
    groups = {r.split(",")[0] for r in rows[1:]}
    assert groups == {"y1", "y2"}


def test_diam_by_group_computes_each_field_once(workdir, rng, monkeypatch):
    from lensdepth import analysis, cli, depth

    calls = []

    def counted(sample, *args, **kwargs):
        calls.append(sample.n)
        return depth.self_depth_field(sample, *args, **kwargs)

    for module in (analysis, cli):
        monkeypatch.setattr(module, "self_depth_field", counted)
    gdir = workdir / "groups"
    gdir.mkdir()
    for name, n in (("a", 20), ("b", 25), ("c", 30)):
        write_points(gdir / f"{name}.csv", rng.standard_normal((n, 2)))
    code = run(["diam-by-group", "--metric", "euclidean", "--groups", str(gdir),
                "--levels", "12", "--out", "diam.csv", "--no-timestamp"])
    assert code == 0
    assert sorted(calls) == [20, 25, 30]
    rows = data_lines(workdir / "diam.csv")
    assert len(rows) == 1 + 3 * 12


def test_diam_by_group_rejects_a_single_level(workdir, rng, capsys):
    gdir = workdir / "groups"
    gdir.mkdir()
    write_points(gdir / "a.csv", rng.standard_normal(10))
    code = run(["diam-by-group", "--metric", "euclidean", "--groups", str(gdir),
                "--lambdas", "0.2", "--out", "diam.csv", "--no-timestamp"])
    assert code == 1
    assert "--lambdas must be a range with at least 2 levels" in capsys.readouterr().err
    assert not (workdir / "diam.csv").exists()


def test_treedist_matrix(workdir):
    (workdir / "trees.nwk").write_text(
        "# two trees\n"
        "((A:1,B:1):0.3,(C:1,D:1):0.2,E:1);\n"
        "((A:1,C:1):0.4,(B:1,D:1):0.2,E:1);\n")
    code = run(["treedist", "--in", "trees.nwk", "--out", "d.csv",
                "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "d.csv")
    assert rows[0] == "tree,2,3"
    first = rows[1].split(",")
    assert first[0] == "2" and float(first[1]) == 0.0
    assert float(first[2]) > 0.0


def test_simulate_smoke(workdir):
    config = {
        "experiment": "supnorm",
        "sampler": {"dist": "normal"},
        "n_schedule": [20, 40],
        "replications": 3,
        "seed": 5,
        "grid": [[-2.0, 2.0, 0.2]],
    }
    (workdir / "exp.json").write_text(json.dumps(config))
    code = run(["simulate", "--config", "exp.json", "--out", "rep.json",
                "--no-timestamp"])
    assert code == 0
    body = json.loads((workdir / "rep.json").read_text())
    assert body["kind"] == "supnorm"
    assert body["provenance"]["seed"] == 0


_SAMPLE = ["--sample", "s.csv"]
_LEVELSET = ["levelset", *_SAMPLE, "--lambda", "0.1"]
_SIDE_OUTPUTS = {"levelset": ["--boundary-out", "bd.csv"],
                 "diam-by-group": ["--svg", "plot.svg"]}
_NORMAL_1D = {"experiment": "supnorm", "sampler": {"dist": "normal"},
              "n_schedule": [10], "replications": 1, "grid": [[-1.0, 1.0, 0.5]]}

# Bad values arriving from the command line or a config file; each row
# must fail at its parse or validation site, before any output is written.
HOSTILE = {
    "v-not-int": ["gamma-tn", "--v", "x", "--sigma", "1"],
    "v-range-not-int": ["gamma-tn", "--v", "1..x", "--sigma", "1"],
    "sigma-not-float": ["gamma-tn", "--v", "3", "--sigma", "abc"],
    "points-zero": ["gamma-tn", "--v", "3", "--sigma", "1", "--points", "0"],
    "points-negative": ["gamma-tn", "--v", "3", "--sigma", "1", "--points", "-4"],
    "lambdas-not-float": ["psi", *_SAMPLE, "--psi", "diam", "--lambdas=a:b:c"],
    "lambdas-infinite": ["psi", *_SAMPLE, "--psi", "diam", "--lambdas=0:inf:0.1"],
    "psi-levels-negative": ["psi", *_SAMPLE, "--psi", "diam", "--levels", "-1"],
    "groups-levels-negative": ["diam-by-group", "--groups", "groups", "--levels", "-2"],
    "grid-nan": [*_LEVELSET, "--grid=0:1:nan"],
    "grid-infinite": [*_LEVELSET, "--grid=0:inf:1,0:1:1"],
    "knn-zero": [*_LEVELSET, "--knn", "0"],
    "knn-negative": [*_LEVELSET, "--knn", "-3"],
    "lambda-nan": ["levelset", *_SAMPLE, "--lambda", "nan"],
    "lambda-infinite": ["levelset", *_SAMPLE, "--lambda", "inf", "--grid=-1:1:0.5,-1:1:0.5"],
    "outliers-lambda-nan": ["outliers", *_SAMPLE, "--lambda", "nan"],
    "tol-nan": ["order", "--x", "s.csv", "--y", "s.csv", "--relation", "strong",
                "--tol", "nan"],
    "tol-infinite": ["order", "--x", "s.csv", "--y", "s.csv", "--relation", "giovagnoli",
                     "--tol", "inf"],
    "reference-mass-nan": ["psi", *_SAMPLE, "--psi", "volume", "--reference", "s.csv",
                           "--reference-mass", "nan"],
    "reference-mass-zero": ["psi", *_SAMPLE, "--psi", "volume", "--reference", "s.csv",
                            "--reference-mass", "0"],
    "config-empty": {},
    "config-replications-not-int": dict(_NORMAL_1D, replications="x"),
    "config-student-t-without-v": dict(_NORMAL_1D, sampler={"dist": "student_t"}),
    "config-sigma-nan": dict(_NORMAL_1D, sampler={"dist": "normal", "sigma": float("nan")}),
    "config-v-nan": dict(_NORMAL_1D, sampler={"dist": "student_t", "v": float("nan")}),
    "config-lambda-nan": dict(_NORMAL_1D, experiment="levelset", **{"lambda": float("nan")}),
    # Sizes numpy refuses before allocating anything.
    "grid-too-many-points": [*_LEVELSET, "--grid=0:1:1e-30"],
    "grid-out-of-memory": [*_LEVELSET, "--grid=0:1:1e-15"],
    "grid-count-overflows": [*_LEVELSET, "--grid=-1e308:1e308:1e-300"],
    "lambdas-too-many-points": ["psi", *_SAMPLE, "--psi", "diam", "--lambdas=0:1:1e-30"],
    "psi-levels-out-of-memory": ["psi", *_SAMPLE, "--psi", "diam",
                                 "--levels", "1000000000000000000"],
    "points-out-of-memory": ["gamma-tn", "--v", "3", "--sigma", "1",
                             "--points", "1000000000000000000"],
    "frame-nan": ["outliers", "--sample", "frames.csv", "--metric", "stiefel-procrustes",
                  "--shape", "3x2"],
}

# Rows whose one error line must name the field they break.
HOSTILE_FIELD = {"config-sigma-nan": "'sigma'", "config-v-nan": "'v'",
                 "config-lambda-nan": "'lambda'"}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_is_one_error_line(workdir, capsys, case):
    rng = np.random.default_rng(3)
    write_points(workdir / "s.csv", rng.standard_normal((12, 2)))
    (workdir / "groups").mkdir()
    write_points(workdir / "groups" / "a.csv", rng.standard_normal((12, 2)))
    frames = np.tile(np.eye(3)[:, :2].ravel(), (5, 1))
    frames[3, 4] = np.nan
    write_points(workdir / "frames.csv", frames)
    row = HOSTILE[case]
    if isinstance(row, dict):
        (workdir / "exp.json").write_text(json.dumps(row))
        row = ["simulate", "--config", "exp.json"]
    code = run(row + ["--out", "out.csv"] + _SIDE_OUTPUTS.get(row[0], []))
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("lensdepth: error: ")
    assert "Traceback" not in err
    assert HOSTILE_FIELD.get(case, "") in err
    assert not any((workdir / name).exists() for name in ("out.csv", "bd.csv", "plot.svg"))


@pytest.mark.parametrize("loo", [[], ["--leave-one-out"]], ids=["plain", "loo"])
def test_byte_identical_across_thread_counts(workdir, rng, loo):
    sample = rng.standard_normal(60)
    write_points(workdir / "s.csv", sample)
    # the leading exact sample copies take the leave-one-out branch
    write_points(workdir / "q.csv", np.concatenate([sample[:5], rng.standard_normal(20)]))
    blobs = []
    for threads in ("1", "4", "8"):
        out = f"d{threads}.csv"
        assert run(["depth", "--sample", "s.csv", "--queries", "q.csv",
                    "--threads", threads, "--seed", "11",
                    "--out", out, "--no-timestamp"] + loo) == 0
        blobs.append((workdir / out).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("command", [
    ["depth", "--queries", "q.csv"],
    ["depth", "--queries", "q.csv", "--leave-one-out"],
    ["outliers", "--lambda", "0.3"],
], ids=["plain", "loo", "outliers"])
def test_tie_heavy_line_byte_identical_across_thread_counts(workdir, rng, command):
    # Integer values: every query and most sample points tie with others.
    sample = rng.integers(-4, 5, 80).astype(float)
    write_points(workdir / "s.csv", sample)
    write_points(workdir / "q.csv", np.concatenate([np.arange(-5.0, 6.0),
                                                    np.arange(-5.0, 5.0) + 0.5]))
    blobs = []
    for threads in ("1", "4", "8"):
        out = f"d{threads}.csv"
        assert run(command + ["--sample", "s.csv", "--threads", threads, "--seed", "11",
                              "--out", out, "--no-timestamp"]) == 0
        blobs.append((workdir / out).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_rerun_idempotent_bytes(workdir, rng):
    write_points(workdir / "s.csv", rng.standard_normal(30))
    for out in ("a.csv", "b.csv"):
        assert run(["outliers", "--sample", "s.csv", "--lambda", "0.1",
                    "--out", out, "--no-timestamp"]) == 0
    assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


def test_format_json_rows(workdir):
    write_points(workdir / "s.csv", [0.0, 1.0, 2.0])
    assert run(["depth", "--sample", "s.csv", "--queries", "s.csv",
                "--format", "json", "--out", "d.json", "--no-timestamp"]) == 0
    body = json.loads((workdir / "d.json").read_text())
    assert [r["depth"] for r in body["rows"]] == [2 / 3, 1.0, 2 / 3]


def test_levelset_accepts_space_separated_negative_grid(workdir, rng):
    write_points(workdir / "s.csv", rng.standard_normal((60, 2)))
    code = run(["levelset", "--sample", "s.csv", "--lambda", "0.1",
                "--grid", "-4:4:0.5,-4:4:0.5",
                "--out", "ls.csv", "--no-timestamp"])
    assert code == 0
    rows = data_lines(workdir / "ls.csv")
    assert rows[0] == "index,x1,x2,depth,member"
    assert len(rows) == 1 + 17 * 17


def cli_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "lensdepth.cli", "--version"],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"lensdepth {__version__}" == "lensdepth 0.1.0"


_SIMULATE = {"n_schedule": [20, 40], "replications": 2, "seed": 5,
             "grid": [[-3.0, 3.0, 0.25]]}
# Each row: a command, the config `simulate` reads (or None), and the
# scipy modules it may load.  The normal law loads no scipy at all; the
# Student-t law and gamma-tn load scipy.special; only the von Mises-Fisher
# sampler loads scipy.stats, and that row also shows the probe sees an
# import when it happens.
NO_SCIPY = {"scipy": False, "scipy.special": False, "scipy.stats": False}
SPECIAL = {"scipy": True, "scipy.special": True, "scipy.stats": False}
SCIPY_STATS_CASES = {
    "version": (["--version"], None, NO_SCIPY),
    "simulate-normal-supnorm": (["simulate"], dict(
        _SIMULATE, experiment="supnorm",
        sampler={"dist": "normal", "mu": 0.3, "sigma": 1.7}), NO_SCIPY),
    "simulate-normal-levelset": (["simulate"], dict(
        _SIMULATE, experiment="levelset", sampler={"dist": "normal"},
        **{"lambda": 0.3}), NO_SCIPY),
    "simulate-normal-clt": (["simulate"], {
        "experiment": "clt", "sampler": {"dist": "normal", "mu": 0.3, "sigma": 1.7},
        "n_schedule": [10], "replications": 500, "seed": 5,
        "points": [[0.0], [1.0]]}, NO_SCIPY),
    "simulate-student-t": (["simulate"], dict(
        _SIMULATE, experiment="levelset", sampler={"dist": "student_t", "v": 3},
        **{"lambda": 0.0}), SPECIAL),
    "gamma-tn": (["gamma-tn", "--v", "1..3", "--sigma", "0.5:1.5:0.5",
                  "--points", "2000"], None, SPECIAL),
    "simulate-sphere-vmf": (["simulate"], {
        "experiment": "clt", "sampler": {"dist": "sphere_vmf", "mu": [0, 0, 1], "kappa": 4.0},
        "n_schedule": [10], "replications": 500, "seed": 5, "pairs": 2000,
        "points": [[0, 0, 1], [0, 1, 0]]},
        {"scipy": True, "scipy.special": True, "scipy.stats": True}),
}


@pytest.mark.parametrize("case", list(SCIPY_STATS_CASES))
def test_scipy_stats_is_loaded_only_for_vmf(workdir, case):
    argv, config, loads = SCIPY_STATS_CASES[case]
    if config is not None:
        (workdir / "exp.json").write_text(json.dumps(config))
        argv = argv + ["--config", "exp.json"]
    if argv != ["--version"]:
        argv = argv + ["--out", "out.csv", "--no-timestamp"]
    code = ("import json, sys; from lensdepth.cli import main; sys.argv[0] = 'lensdepth'\n"
            "try:\n    main()\nexcept SystemExit as exc:\n    status = exc.code\n"
            f"print(status, json.dumps({{m: m in sys.modules for m in {list(loads)!r}}}))")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=cli_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    status, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert (status, json.loads(loaded)) == ("0", loads), proc.stderr
    if argv == ["--version"]:
        assert proc.stdout.split()[:2] == ["lensdepth", __version__]
    else:
        assert (workdir / "out.csv").exists()


# Two points 2e300 apart: their squared distance overflows to inf.
FAR_SAMPLE = "x1,x2\n1e300,1e300\n-1e300,1e300\n0,0\n1,0\n0,1\n"
# Two points 2e308 apart: their coordinate difference overflows to inf.
HUGE_SAMPLE = "x1,x2\n1e308,0\n-1e308,0\n0,1\n0,2\n"
NEAR_SAMPLE = "x1,x2\n0.5,0.5\n-1,0.2\n0.3,-0.7\n2,1\n-0.4,-1.5\n"
# sha256 of each output, for FAR_SAMPLE and HUGE_SAMPLE.  The distances
# between the far points are inf, as the scalar oracle gives them.
FAR_OUTPUTS = {
    "depth": (["--sample", "big.csv", "--queries", "big.csv"], "depth.csv", (
        "860f28d0aec89d463466a5f25817b071e6eb1ffc89b4bf49230130d712073969",
        "b051038a9d98ead572fac9f83b12d7fc521fbd9bb2ed6cba951c7cf03a9262ca")),
    "levelset": (["--sample", "big.csv", "--lambda", "0.3"], "levelset.csv", (
        "c5d9c729b2f8e7050b856bca77bdb09fdc7e6a22bd46b97a60d1aa08af467e2f",
        "7068271cc409d8632de7dcafd9ebb177856dacec1bbcf38263acd16333f015de")),
    "psi": (["--sample", "big.csv", "--psi", "diam"], "psi.csv", (
        "cfa5054172a1962945dedab6d29d430abb5678a53b8d5a54498fa931d29b2b08",
        "c6484e6364c30426e664bdf3580326ade05c5862a0dffb4ca1882de771fe705b")),
    "ddplot": (["--group0", "big.csv", "--group1", "small.csv"], "ddplot.csv", (
        "9468ed59ea532fbb117eded12c270f3e61a5be5c55f54ddd82b2518b05a06a0a",
        "48880059444a9beac6ff54173aca156a5c4b7b767a2f2d850a1e4d4d795a7a40")),
    "gamma": (["--x", "big.csv", "--y", "big.csv", "--psi", "diam"], "gamma.json",
              (None, None)),
}


@pytest.mark.parametrize("command", list(FAR_OUTPUTS))
def test_distances_past_the_double_range_write_nothing_to_stderr(workdir, command):
    (workdir / "small.csv").write_text(NEAR_SAMPLE)
    args, out, digests = FAR_OUTPUTS[command]
    for sample, digest in zip((FAR_SAMPLE, HUGE_SAMPLE), digests):
        (workdir / "big.csv").write_text(sample)
        proc = subprocess.run(
            [sys.executable, "-m", "lensdepth.cli", command, *args, "--out", out,
             "--no-timestamp"], capture_output=True, text=True, env=cli_env(), timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        if digest is not None:
            assert hashlib.sha256((workdir / out).read_bytes()).hexdigest() == digest
        else:
            # identical curves, infinite at the lowest levels, give exactly 1
            result = json.loads((workdir / out).read_text())
            assert result["psi_x"] == result["psi_y"] and result["psi_x"][0] == np.inf
            assert result["gamma"] == 1.0


def write_twelve_leaf_trees(path, count):
    rng = np.random.default_rng(7)
    labels = [f"t{i:02d}" for i in range(1, 13)]
    path.write_text("".join(to_newick(random_tree(labels, rng)) + "\n"
                            for _ in range(count)))


def test_treedist_bytes_do_not_depend_on_hash_seed(workdir):
    write_twelve_leaf_trees(workdir / "trees.nwk", 60)
    blobs = []
    for seed in ("0", "5"):
        proc = subprocess.run(
            [sys.executable, "-m", "lensdepth.cli", "treedist", "--in", "trees.nwk",
             "--out", f"d{seed}.csv", "--no-timestamp"],
            capture_output=True, text=True, env=cli_env(PYTHONHASHSEED=seed), timeout=300)
        assert proc.returncode == 0, proc.stderr
        blobs.append((workdir / f"d{seed}.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_newick_error_prints_its_offset_once(workdir, capsys):
    (workdir / "t.nwk").write_text("(a:1,b:1,c:1);\n(a:1,b:1,d:1);\n")
    assert run(["treedist", "--in", "t.nwk", "--out", "d.csv"]) == 1
    assert capsys.readouterr().err == (
        "lensdepth: error: t.nwk: line 2: leaf label 'd' absent from universe "
        "(at offset 9)\n")


def test_treedist_runs_without_networkx(workdir):
    write_twelve_leaf_trees(workdir / "trees.nwk", 8)
    code = ("import sys; sys.modules['networkx'] = None; "
            "from lensdepth.cli import run; sys.exit(run(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "treedist", "--in", "trees.nwk", "--out", "d.csv"],
        capture_output=True, text=True, env=cli_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(data_lines(workdir / "d.csv")) == 1 + 8


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps) == ["numpy", "scipy"]


def test_tree_levelset_boundary_reuses_the_sample_geodesics(workdir, monkeypatch):
    from lensdepth import treespace

    write_twelve_leaf_trees(workdir / "trees.nwk", 60)
    calls = []

    def counted(t1, t2):
        calls.append(1)
        return bhv_distance(t1, t2)

    bhv_distance = treespace.bhv_distance
    monkeypatch.setattr(treespace, "bhv_distance", counted)
    args = ["levelset", "--metric", "bhv", "--sample", "trees.nwk", "--lambda", "0.3",
            "--no-timestamp"]
    assert run(args + ["--out", "plain.csv"]) == 0
    assert len(calls) == 60 * 59 // 2
    calls.clear()
    assert run(args + ["--out", "ls.csv", "--boundary-out", "bd.csv"]) == 0
    # The depth field's pairwise matrix serves the kNN graph as well.
    assert len(calls) == 60 * 59 // 2
    assert (workdir / "ls.csv").read_bytes() == (workdir / "plain.csv").read_bytes()
    members = {int(r.split(",")[0]) for r in data_lines(workdir / "ls.csv")[1:]
               if r.endswith(",1")}
    boundary = [int(r) for r in data_lines(workdir / "bd.csv")[1:]]
    assert boundary and set(boundary) <= members


@pytest.mark.parametrize("psi", [["--psi", "diam"], ["--psi", "inradius", "--lambdas=0.3:0.6:0.1"]])
def test_tree_psi_reuses_the_sample_geodesics(workdir, monkeypatch, psi):
    from lensdepth import treespace

    write_twelve_leaf_trees(workdir / "trees.nwk", 60)
    calls = []

    def counted(t1, t2):
        calls.append(1)
        return bhv_distance(t1, t2)

    bhv_distance = treespace.bhv_distance
    monkeypatch.setattr(treespace, "bhv_distance", counted)
    assert run(["psi", "--metric", "bhv", "--sample", "trees.nwk", *psi,
                "--out", "psi.csv", "--no-timestamp"]) == 0
    # The depth field's pairwise matrix serves the psi curve as well.
    assert len(calls) == 60 * 59 // 2
    assert any(float(r.split(",")[1]) > 0 for r in data_lines(workdir / "psi.csv")[1:])


# ---------------------------------------------------------------------------
# Leave-one-out outputs on every metric: identical bytes at any thread
# count and under any hash seed (equal points are found through a set).

LOO_COMMANDS = {
    "depth": ["depth", "--sample", "g0", "--queries", "q", "--leave-one-out"],
    "ddplot": ["ddplot", "--group0", "g0", "--group1", "g1", "--points", "q"],
}


def write_loo_inputs(workdir, metric):
    """Two groups and queries for `metric` with many zero entries, in the
    directory named after it; the queries hold copies of group points
    with their zeros negated.  Returns {"g0", "g1", "q": path} and the
    metric arguments."""
    space, pts = zero_rich_points(metric, np.random.default_rng(len(metric)), 30)
    parts = {"g0": pts[:14], "g1": pts[14:26],
             "q": np.concatenate([negate_zeros(pts[[0, 3, 15, 20]]), pts[[5]], pts[26:]])}
    (workdir / metric).mkdir()
    paths = {}
    for name, points in parts.items():
        if metric == "bhv":
            paths[name] = f"{metric}/{name}.nwk"
            text = "".join(to_newick(t) + "\n" for t in points)
        else:
            paths[name] = f"{metric}/{name}.csv"
            rows = points.reshape(len(points), -1)
            lines = [",".join(f"x{i + 1}" for i in range(rows.shape[1]))]
            text = "\n".join(lines + [",".join(fmt(v) for v in row) for row in rows]) + "\n"
        (workdir / paths[name]).write_text(text)
    shape = ["--shape", f"{space.rows}x{space.cols}"] if metric.startswith("stiefel") else []
    return paths, ["--metric", metric] + shape


def test_loo_outputs_do_not_depend_on_threads_or_hash_seed(workdir):
    jobs, want = [], {}
    for metric in METRIC_NAMES:
        paths, metric_args = write_loo_inputs(workdir, metric)
        for command, argv in LOO_COMMANDS.items():
            argv = [paths.get(a, a) for a in argv] + metric_args + ["--no-timestamp"]
            blobs = set()
            for threads in ("1", "2", "3", "1", "2", "3"):
                assert run(argv + ["--threads", threads, "--out", "out.csv"]) == 0
                blobs.add((workdir / "out.csv").read_bytes())
            assert len(blobs) == 1, (metric, command)
            out = f"{metric}/{command}.csv"
            jobs.append(argv + ["--out", out])
            want[out] = blobs.pop()
    script = ("import json, sys\nfrom lensdepth.cli import run\n"
              "sys.exit(max(run(argv) for argv in json.loads(sys.argv[1])))")
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(jobs)], cwd=workdir,
                              capture_output=True, text=True,
                              env=cli_env(PYTHONHASHSEED=seed), timeout=300)
        assert proc.returncode == 0, proc.stderr
        for out, blob in want.items():
            assert (workdir / out).read_bytes() == blob, (seed, out)
