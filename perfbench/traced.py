"""Run one lensdepth CLI command in this process with timing wrappers.

Usage: python3 traced.py SUMMARY.json -- <lensdepth arguments>

Spans and counters are recorded only here, around public calls into each
module: a timing subclass of every metric space, and wrappers on the
depth, level-set, dispersion, analysis, Monte Carlo, tree and I/O entry
points.  Wrappers are installed wherever callers look the names up,
because `cli` and `asymptotics` import names directly.  Spans stay in
memory; when the command ends, per-name self times (span duration minus
the time covered by its child spans on the same thread), counters and
the raw durations of depth calls are written to SUMMARY.json.  The
command's exit code is this process's exit code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SPACE_KEYS = {"sphere-geodesic": "sphere", "bhv-tree": "bhv"}


class Recorder:
    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.durations = defaultdict(list)
        self.unpatched = []             # names the library no longer has
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name, amount=1):
        with self._lock:                # worker threads record counts too
            self.counts[name] += amount

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered
        return {"self_s": self_s, "counts": self.counts, "maxima": self.maxima,
                "durations": self.durations, "unpatched": self.unpatched}


def _spanned(rec, fn, name):
    """Wrap `fn` in a span; `name` is a string or a function of the
    call's bound arguments that returns one (and may record counters)."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if callable(name):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = name(bound.arguments)
        else:
            span = name
        with rec.span(span):
            return fn(*args, **kwargs)

    return timed


def _patch(rec, modules, name, make):
    """Replace `name` in every module that binds the object defined in
    `modules[0]`.  A name the library has removed, or rebound to another
    object, is left untraced and listed, so a refactor of the library
    cannot make a traced run fail."""
    original = getattr(modules[0], name, None)
    if original is None:
        rec.unpatched.append(f"{modules[0].__name__}.{name}")
        return
    replacement = make(original)
    for module in modules:
        bound = getattr(module, name, None)
        if bound is original:
            setattr(module, name, replacement)
        elif bound is not None:
            rec.unpatched.append(f"{module.__name__}.{name}")


def _timed_space(rec, base):
    class Timed(base):
        def pairwise(self, points, *args, **kwargs):
            key = SPACE_KEYS.get(self.kind, self.kind)
            n = len(points)
            rec.add(f"metrics.pairwise.{key}.evals", n * (n - 1) // 2)
            with rec.span(f"metrics.pairwise.{key}"):
                return super().pairwise(points, *args, **kwargs)

        def cross_matrix(self, ps, qs, *args, **kwargs):
            key = SPACE_KEYS.get(self.kind, self.kind)
            rec.add(f"metrics.cross.{key}.evals", len(ps) * len(qs))
            with rec.span(f"metrics.cross.{key}"):
                return super().cross_matrix(ps, qs, *args, **kwargs)

    Timed.__name__ = Timed.__qualname__ = base.__name__
    return Timed


def install(rec: Recorder) -> None:
    import numpy as np

    from lensdepth import (analysis, asymptotics, cli, dataio, depth, dispersion,
                           levelsets, metrics, treespace)

    for name in ("EuclideanSpace", "SphereSpace", "StiefelSpace", "BHVSpace"):
        _patch(rec, [metrics, cli, asymptotics], name, lambda base: _timed_space(rec, base))

    def depth_call(work):
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                rec.add("depth.calls")
                rec.add("depth.pair_cmp", work(*args, **kwargs))
                start = time.perf_counter()
                try:
                    with rec.span("depth.count"):
                        return fn(*args, **kwargs)
                finally:
                    rec.durations["depth.count"].append(time.perf_counter() - start)
            return timed
        return make

    def pair_work(n):
        return n * (n - 1) // 2

    _patch(rec, [depth, cli, asymptotics, analysis], "batch_depth", depth_call(
        lambda queries, sample, *a, **k: len(queries) * pair_work(sample.n)))
    _patch(rec, [depth, cli, analysis], "self_depth_field", depth_call(
        lambda sample, *a, **k: sample.n * pair_work(sample.n)))

    def psi(a):
        values = np.asarray(a["field"].values)
        lambdas = np.asarray(a["lambdas"], dtype=float)
        rec.add("psi.levels", len(lambdas))
        if a["kind"] == "diam" and a.get("pair_matrix") is None:
            temp = len(values) ** 2
        elif a["kind"] == "inradius":
            members = (values[None, :] >= lambdas[:, None]).sum(axis=1)
            temp = int((members * (len(values) - members)).max())
        else:
            temp = 0
        rec.maxima["psi.temp_bytes"] = max(rec.maxima["psi.temp_bytes"], 8 * temp)
        return f"psi.{a['kind']}"

    spans = [
        ([dispersion, analysis], "psi_curve", psi),
        ([levelsets, asymptotics], "boundary_points", "levelsets.boundary"),
        ([levelsets, asymptotics], "hausdorff", "levelsets.hausdorff"),
        ([asymptotics], "p2_matrix", "mc.p2"),
        ([analysis], "depth_depth", "analysis.depth_depth"),
        ([dataio, treespace], "parse_newick_lines", "newick.parse"),
        ([dataio], "read_points_csv", "dataio.read"),
        ([dataio], "read_newick_file", "dataio.read"),
        ([dataio], "write_table", "dataio.write"),
        ([dataio], "write_json", "dataio.write"),
    ]
    for modules, fn_name, span in spans:
        _patch(rec, modules, fn_name, lambda fn, span=span: _spanned(rec, fn, span))

    def count_bytes(fn):
        @functools.wraps(fn)
        def timed(path, text):
            rec.add("dataio.bytes_out", len(text.encode()))
            return fn(path, text)
        return timed

    _patch(rec, [dataio], "atomic_write_text", count_bytes)

    def geodesic(fn):
        @functools.wraps(fn)
        def timed(t1, t2):
            with rec.span("bhv.geodesic"):
                result = fn(t1, t2)
            rec.add("bhv.geodesic.calls")
            rec.add("bhv.support_blocks", len(getattr(result, "support", ())))
            return result
        return timed

    _patch(rec, [treespace], "bhv_distance", geodesic)

    def knn(base):
        class TimedKnnGrid(base):
            def __init__(self, *args, **kwargs):
                with rec.span("levelsets.knn"):
                    super().__init__(*args, **kwargs)
        return TimedKnnGrid

    _patch(rec, [levelsets, cli], "KnnGrid", knn)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SUMMARY.json -- <lensdepth arguments>", file=sys.stderr)
        return 2
    start = time.perf_counter()
    from lensdepth import cli
    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    try:
        code = cli.run(argv[2:])
    except SystemExit as exc:          # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    out = rec.summary()
    out["import_s"] = import_s
    with open(argv[0], "w") as handle:
        json.dump(out, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
