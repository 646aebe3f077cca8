import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lensdepth import __version__
from lensdepth.cli import run
from lensdepth.dataio import fmt
from lensdepth.dispersion import gamma_t_vs_normal


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
    assert float(two_gamma) == gamma_t_vs_normal(3, 1.0).two_gamma


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


def test_module_entry_point_runs():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "lensdepth.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"lensdepth {__version__}" == "lensdepth 0.1.0"
