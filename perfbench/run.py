"""lensdepth benchmark: runs one workload's CLI ops as fresh child
processes, checks every output, and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory.  With `--trace 0` it measures the set-up time,
then repeats passes of the workload (each op a fresh `lensdepth` process,
one at a time: a closed loop with one client) until S seconds have
passed, and reports end-to-end metrics.  With `--trace 1` it alternates
untraced passes with passes whose ops run under `traced.py`, and reports
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before
it holds the full report, which is also written to
`.perfbench/results/`.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
HASH_SEED = "0"
RERUN_HASH_SEED = "5"
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150
CLI = "import sys; from lensdepth.cli import main; sys.argv[0] = 'lensdepth'; main()"

SPACES = ("euclidean", "sphere", "stiefel-procrustes", "bhv")
LAYER_SPANS = {
    "depth.count.s": "depth.count",
    "psi.diam.s": "psi.diam",
    "psi.inradius.s": "psi.inradius",
    "levelsets.boundary.s": "levelsets.boundary",
    "levelsets.hausdorff.s": "levelsets.hausdorff",
    "levelsets.knn.s": "levelsets.knn",
    "bhv.geodesic.s": "bhv.geodesic",
    "newick.parse.s": "newick.parse",
    "mc.p2.s": "mc.p2",
    "analysis.depth_depth.s": "analysis.depth_depth",
    "dataio.read.s": "dataio.read",
    "dataio.write.s": "dataio.write",
}
LAYER_COUNTS = ("depth.pair_cmp", "depth.calls", "psi.levels", "bhv.geodesic.calls",
                "bhv.support_blocks", "dataio.bytes_out")
for _space in SPACES:
    for _kind in ("pairwise", "cross"):
        LAYER_SPANS[f"metrics.{_kind}.{_space}.s"] = f"metrics.{_kind}.{_space}"
        LAYER_COUNTS += (f"metrics.{_kind}.{_space}.evals",)


class Child:
    """One finished child process, with its own rusage from wait4
    (RUSAGE_CHILDREN would be a running maximum over all children)."""

    def __init__(self, argv, cwd, env):
        log = Path(cwd) / "stderr.log"
        lock = threading.Lock()
        exited = False

        def expire():
            with lock:
                if not exited:          # never signal a pid that may be reused
                    proc.kill()

        start = time.perf_counter()
        with open(log, "wb") as stderr:
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                    stderr=stderr)
        timer = threading.Timer(OP_TIMEOUT_S, expire)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        self.wall = time.perf_counter() - start
        with lock:
            exited = True
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0       # ru_maxrss is in KiB on Linux
        self.stderr_tail = log.read_text(errors="replace")[-400:]


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"                  # only --threads decides the thread count
    return env


def run_op(op, workdir, traced_summary=None, hash_seed=HASH_SEED):
    """Run one op; returns (Child, {output path: bytes or None})."""
    if traced_summary is None:
        argv = [sys.executable, "-c", CLI] + op.argv
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(traced_summary), "--"] + op.argv
    for path in [workdir / rel for rel in op.outputs] + [traced_summary]:
        if path is not None:
            path.unlink(missing_ok=True)
    child = Child(argv, workdir, child_env(hash_seed))
    outputs = {rel: (workdir / rel).read_bytes() if (workdir / rel).is_file() else None
               for rel in op.outputs}
    return child, outputs


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def metadata(args, wl) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        sha = got.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "hash_seed": HASH_SEED, "nproc": nproc(),
        "threads": wl.threads, "git_sha": sha, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "networkx": version("networkx"), "declared_work": wl.work,
        "work_unit": wl.work_unit,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Runs passes of one workload and keeps the bookkeeping for
    correctness: the first pass's outputs are checked against the
    oracles, later passes must reproduce them byte for byte."""

    def __init__(self, wl, workdir):
        self.wl = wl
        self.workdir = workdir
        self.reference = {}             # op name -> outputs of the first untraced pass
        self.outcomes = []              # (op name, child ok, outputs)
        self.attempted_extra = 0        # runs outside the passes
        self.extra_failed = 0
        self.problems = []

    def run_pass(self, traced=False) -> dict:
        walls, cpus, rsses, summaries = [], [], [], {}
        for op in self.wl.ops:
            summary = self.workdir / f"trace-{op.name}.json" if traced else None
            child, outputs = run_op(op, self.workdir, summary)
            walls.append(child.wall)
            cpus.append(child.cpu)
            rsses.append(child.rss_mb)
            if child.code != 0:
                self.problems.append(f"{op.name}: exit code {child.code}: "
                                     f"{child.stderr_tail}")
            if not traced and op.name not in self.reference:
                self.reference[op.name] = outputs
            self.outcomes.append((op.name, child.code == 0, outputs))
            if traced and summary.is_file():
                summaries[op.name] = json.loads(summary.read_text())
        return {"wall": sum(walls), "cpu": sum(cpus), "rss": max(rsses),
                "summaries": summaries}

    def failures(self, checks) -> int:
        """Check the reference outputs, then count failed op runs."""
        verdict = {}
        for op in self.wl.ops:
            outputs = self.reference.get(op.name)
            try:
                if outputs is None or any(v is None for v in outputs.values()):
                    raise checks.CheckError("no output written")
                checks.check_op(self.wl, op.name, outputs)
                verdict[op.name] = True
            except checks.CheckError as exc:
                self.problems.append(f"{op.name}: {exc}")
                verdict[op.name] = False
        failed = 0
        for name, ok, outputs in self.outcomes:
            same = outputs == self.reference.get(name)
            if not same and ok:
                self.problems.append(f"{name}: output differs from the first pass")
            failed += not (ok and same and verdict[name])
        return failed + self.extra_failed


def measure_setup(workdir) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        child = Child([sys.executable, "-c", CLI, "--version"], workdir,
                      child_env(HASH_SEED))
        if child.code != 0:
            raise RuntimeError(f"lensdepth --version exited with {child.code}")
        times.append(child.wall)
    return times


def end_to_end(runner, seconds) -> tuple[dict, dict]:
    setup = measure_setup(runner.workdir)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(runner.run_pass())
    wall = quartiles([p["wall"] for p in passes])
    detail = {
        "wall_s": wall,
        "cpu_s": quartiles([p["cpu"] for p in passes]),
        "peak_rss_mb": quartiles([p["rss"] for p in passes]),
        "setup_s": quartiles(setup),
    }
    work_rate = runner.wl.work / wall["median"]
    detail[f"{runner.wl.work_unit}_per_s"] = work_rate
    metrics = {
        "wall_s": {"value": wall["median"], "unit": "s"},
        "cpu_s": {"value": detail["cpu_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": detail["peak_rss_mb"]["median"], "unit": "MB"},
        "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
        "work_per_s": {"value": work_rate, "unit": "1/s"},
    }
    return metrics, detail


def layer_values(wl, summaries: dict) -> dict:
    """Per-layer numbers of one traced pass from its per-op summaries."""
    values = {name: 0.0 for name in LAYER_SPANS}
    values.update({name: 0 for name in LAYER_COUNTS})
    values["psi.temp_bytes"] = 0
    mc_durations = []
    for summary in summaries.values():
        for name, span in LAYER_SPANS.items():
            values[name] += summary["self_s"].get(span, 0.0)
        for name in LAYER_COUNTS:
            values[name] += summary["counts"].get(name, 0)
        values["psi.temp_bytes"] = max(values["psi.temp_bytes"],
                                       summary["maxima"].get("psi.temp_bytes", 0))
        if wl.name == "mc-1d":
            mc_durations += summary["durations"].get("depth.count", [])
    values["cli.import.s"] = sum(s["import_s"] for s in summaries.values())
    values["depth.pair_cmp_per_s"] = (values["depth.pair_cmp"] / values["depth.count.s"]
                                      if values["depth.count.s"] > 0 else 0.0)
    values["mc.replications"] = len(mc_durations)
    values["mc.batch_depth.p50_s"] = statistics.median(mc_durations) if mc_durations else 0.0
    values["mc.batch_depth.max_s"] = max(mc_durations, default=0.0)
    return values


def hashseed_diff_pairs(runner, checks) -> int:
    """Rerun the tree op under another hash seed and count tree pairs
    whose distance changed."""
    op = runner.wl.ops[0]
    child, outputs = run_op(op, runner.workdir, hash_seed=RERUN_HASH_SEED)
    runner.attempted_extra += 1
    try:
        if child.code != 0:
            raise checks.CheckError(f"exit code {child.code}: {child.stderr_tail}")
        checks.check_op(runner.wl, op.name, outputs)
    except checks.CheckError as exc:
        runner.problems.append(f"{op.name} under hash seed {RERUN_HASH_SEED}: {exc}")
        runner.extra_failed += 1
        return 0
    try:
        base = checks.treedist_matrix(runner.reference[op.name]["out/treedist.csv"])
    except (checks.CheckError, AttributeError):
        return 0                        # the first pass failed; failures() reports it
    other = checks.treedist_matrix(outputs["out/treedist.csv"])
    return int(np.triu(base != other, 1).sum())


def _with_units(values: dict):
    for name, value in values.items():
        if name.endswith("_per_s"):
            unit = "1/s"
        elif name.endswith(".s") or name.endswith("_s"):
            unit = "s"
        elif name.endswith("bytes") or name.endswith("bytes_out"):
            unit = "bytes"
        else:
            unit = "count"
        yield name, value, unit


def per_layer(runner, seconds, checks) -> tuple[dict, dict]:
    """Per-layer metrics.  The trace's own consistency checks go to
    `trace_checks` in the detail: they test the tracing, not the
    program's outputs, so they do not make the run incorrect."""
    wl = runner.wl
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.run_pass())
        traced.append(runner.run_pass(traced=True))
    unpatched = {name for p in traced for s in p["summaries"].values() for name in s["unpatched"]}
    trace_checks = [f"untraced: {name}" for name in sorted(unpatched)]
    for i, p in enumerate(traced):
        if set(p["summaries"]) != {op.name for op in wl.ops}:
            trace_checks.append(f"traced pass {i}: an op wrote no trace summary")
    per_pass = [layer_values(wl, p["summaries"]) for p in traced]
    for values in per_pass:
        if values["depth.pair_cmp"] != (wl.work if wl.work_unit == "pair_cmp" else 0):
            trace_checks.append(f"traced depth.pair_cmp {values['depth.pair_cmp']} != "
                                f"declared {wl.work}")
        if wl.work_unit == "geodesic" and values["bhv.geodesic.calls"] != wl.work:
            trace_checks.append(f"traced bhv.geodesic.calls {values['bhv.geodesic.calls']} "
                                f"!= declared {wl.work}")
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                  - statistics.median(p["wall"] for p in untraced))
    values["bhv.hashseed_diff_pairs"] = (hashseed_diff_pairs(runner, checks)
                                         if wl.name == "bhv-trees" else 0)
    detail = {"trace_checks": trace_checks,
              "traced_passes": len(traced), "untraced_passes": len(untraced),
              "traced_wall_s": quartiles([p["wall"] for p in traced]),
              "untraced_wall_s": quartiles([p["wall"] for p in untraced])}
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in _with_units(values)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lensdepth" / "cli.py").is_file():
        print(f"perfbench: no lensdepth sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed
    # and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, workdir, args.seed, nproc())
        runner = Runner(wl, workdir)
        if args.trace:
            metrics, detail = per_layer(runner, args.seconds, checks)
        else:
            metrics, detail = end_to_end(runner, args.seconds)
        failed = runner.failures(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(runner.outcomes) + runner.attempted_extra
    correct = failed == 0 and not runner.problems
    detail.update(op_fail_frac=failed / attempted, problems=runner.problems,
                  meta=metadata(args, wl))
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(dict(report, detail=detail), indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
