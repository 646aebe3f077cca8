"""The exact count on Euclidean lattices: each lens is rasterized row by
row from its chord estimate, and every lens with an end within the
rounding band of a lattice index is settled by the float predicate: one
test at that index while the lens's own band, tightened by its chord's
length, is below 1/2, the whole row from 1/2 on.  Every count must equal
the pairwise kernel on the full query matrix, bit for bit, at the band
the count derives and at wider ones, and the double loop on a subsample,
without a RuntimeWarning of its own."""

import functools
import json
import math

import numpy as np
import pytest

from lensdepth import depth
from lensdepth.cli import run
from lensdepth.dataio import fmt
from lensdepth.depth import (
    DepthError,
    Sample,
    _lattice_counts,
    batch_depth,
    empirical_lens_depth,
)
from lensdepth.levelsets import LatticeGrid
from lensdepth.metrics import EuclideanSpace, SphereSpace

from conftest import CASES, _count_block, halton_normal


def case(name):
    pts, axes, _ = CASES[name]
    sample = Sample(pts, EuclideanSpace(pts.shape[1]))
    # The oracle's own matrices overflow where the case says so.
    with np.errstate(over="ignore"):
        sample.distance_matrix
    return sample, LatticeGrid(tuple(axes))


def kernel_counts(grid, sample):
    with np.errstate(over="ignore"):
        dq = sample.space.cross_matrix(grid.points, sample.points)
    return _count_block(dq, sample.distance_matrix)


@functools.cache
def case_kernel_counts(name):
    """The kernel's counts on a `CASES` entry, computed once per run."""
    sample, grid = case(name)
    return kernel_counts(grid, sample).tolist()


@pytest.mark.parametrize("name", sorted(CASES))
def test_lattice_counts_equal_the_kernel(name):
    sample, grid = case(name)
    field = batch_depth(grid, sample, threads=2)
    assert field.points is grid.points
    assert field.counts.tolist() == case_kernel_counts(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_lattice_values_equal_the_double_loop(name):
    sample, grid = case(name)
    field = batch_depth(grid, sample)
    picks = np.random.default_rng(0).choice(len(grid), size=min(12, len(grid)),
                                            replace=False)
    with np.errstate(over="ignore"):
        naive = [empirical_lens_depth(grid.points[q], sample) for q in picks]
    assert field.values[picks].tolist() == naive


# Where squares may overflow or go subnormal the band's bound fails.
NO_BAND = {"offset-2^500", "offset-2^-500", "squares-overflow", "squares-subnormal"}
# Zoomed lattices, whose steps put the band past 1/2.
ZOOMED = {n for n in CASES if n.startswith("zoomed")}


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][2]))
def test_tie_heavy_cases_need_the_guard(name, monkeypatch):
    """The float test settles some lens, and trusting every chord estimate
    instead (a negative band) miscounts.  Where the band is inf no
    estimate is trusted at all."""
    sample, grid = case(name)
    counts, settled = _lattice_counts(grid, sample)
    assert settled > 0
    assert counts.tolist() == case_kernel_counts(name)
    if name not in NO_BAND:
        monkeypatch.setattr(depth, "_chord_band", lambda *args: -1.0)
        assert _lattice_counts(grid, sample)[0].tolist() != case_kernel_counts(name)


@pytest.mark.parametrize("name", sorted(n for n in CASES if "tangent" in n))
def test_tangent_rows_need_the_band(name, monkeypatch):
    """Trusting every estimate whose ends are not integers miscounts these
    cases, so they show that the band is wide enough where it matters."""
    sample, grid = case(name)
    monkeypatch.setattr(depth, "_chord_band", lambda *args: 0.0)
    assert _lattice_counts(grid, sample)[0].tolist() != kernel_counts(grid, sample).tolist()


@pytest.mark.parametrize("band", [0.25, 0.49, 0.5, math.inf])
@pytest.mark.parametrize("name", sorted(CASES))
def test_wider_bands_keep_the_counts(name, band, monkeypatch):
    """Below 1/2 a wider band settles more ends than need it, each by one
    test at its nearest index; from 1/2 on every lens is tested along its
    whole row.  Where the band is inf it stays inf."""
    sample, grid = case(name)
    derived = depth._chord_band
    monkeypatch.setattr(depth, "_chord_band", lambda *args: np.maximum(derived(*args), band))
    assert _lattice_counts(grid, sample)[0].tolist() == case_kernel_counts(name)


def recorded_bands(name, monkeypatch):
    """The count's band and then each held batch's lens bands."""
    bands, band = [], depth._chord_band

    def recorded(*args):
        bands.append(band(*args))
        return bands[-1]

    monkeypatch.setattr(depth, "_chord_band", recorded)
    sample, grid = case(name)
    _lattice_counts(grid, sample)
    return bands


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_band_is_inf_only_past_its_bound(name, monkeypatch):
    band = recorded_bands(name, monkeypatch)[0]
    if name in NO_BAND:
        assert math.isinf(band)
    else:
        assert 0.5 <= band < math.inf if name in ZOOMED else 0 < band < 1e-4


def test_a_lens_band_falls_with_its_chord():
    """A chord of length 0 takes the count's band; a longer one's rounding
    moves its ends less, down to the terms that do not depend on it."""
    roots = np.array([0.0, 1.0, 1e3, 1e6, 1e9])
    bands = depth._chord_band(2, 3.0, 5.0, 1e-8, roots)
    assert bands[0] == depth._chord_band(2, 3.0, 5.0, 1e-8) > 0.5
    assert np.all(np.diff(bands) <= 0) and bands[-1] < 1e-5


@pytest.mark.parametrize("name", sorted(ZOOMED))
def test_zoomed_lattices_settle_few_lenses(name, monkeypatch):
    """Past a band of 1/2 every incidence is held, but its own band lets
    all but the lenses with short chords or ends on an index through."""
    sample, grid = case(name)
    settled = _lattice_counts(grid, sample)[1]
    lens_bands = np.concatenate([np.ravel(b) for b in recorded_bands(name, monkeypatch)[1:]])
    assert 100 * settled < lens_bands.size
    assert (np.count_nonzero(lens_bands >= 0.5) > 0) == ("short-chords" in name)


def test_counts_do_not_depend_on_threads():
    sample, grid = case("integer-on-tenths")
    runs = [batch_depth(grid, sample, threads).counts.tolist() for threads in (1, 2, 3)]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_the_lattice_count_starts_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread pool was asked for")

    monkeypatch.setattr(depth, "thread_map", no_threads)
    sample, grid = case("halton-normal")
    assert batch_depth(grid, sample, threads=4).counts.tolist() == \
        kernel_counts(grid, sample).tolist()


def test_the_line_takes_the_grid_points():
    grid = LatticeGrid(((-2.0, 2.0, 0.5),))
    sample = Sample(halton_normal(15, 1, 15), EuclideanSpace(1))
    assert batch_depth(grid, sample).values.tolist() == \
        batch_depth(grid.points, sample).values.tolist()


def test_a_lattice_of_another_dimension_is_rejected():
    """The error names the lattice and the space, not a point of it."""
    sample = Sample(halton_normal(15, 3, 15), EuclideanSpace(3))
    with pytest.raises(DepthError, match=r"^lattice -2\.0:2\.0:0\.5,-2\.0:2\.0:0\.5 is a point "
                                         r"set of R\^2, not of EuclideanSpace\(dim=3\)$"):
        batch_depth(LatticeGrid(((-2.0, 2.0, 0.5),) * 2), sample)
    with pytest.raises(DepthError, match=r"R\^3, not of SphereSpace\(dim=3\)$"):
        batch_depth(LatticeGrid(((0.0, 1.0, 0.5),) * 3), Sample(np.eye(3), SphereSpace(3)))


# Each row: a command and the config `simulate` reads (or None).  Every run
# must write the same bytes at any thread count and on a rerun.  The rows
# without --grid evaluate on the samples' own points.
_GRID = "--grid=-3:3:0.2,-3:3:0.2"
CLI_CONTRACT = {
    "levelset": (["levelset", "--sample", "x.csv", "--lambda", "0.2", _GRID,
                  "--boundary-out", "bd.csv"], None),
    "psi": (["psi", "--sample", "x.csv", "--psi", "inradius", "--levels", "8", _GRID], None),
    "psi-diam": (["psi", "--sample", "x.csv", "--psi", "diam", "--levels", "8", _GRID],
                 None),
    "gamma": (["gamma", "--x", "x.csv", "--y", "y.csv", "--psi", "diam",
               "--levels", "8", _GRID], None),
    "order": (["order", "--x", "x.csv", "--y", "y.csv", "--relation", "spread",
               "--psi", "inradius", "--levels", "8", _GRID], None),
    "psi-volume-knn": (["psi", "--sample", "x.csv", "--psi", "volume", "--reference", "y.csv",
                        "--levels", "8"], None),
    "psi-diam-knn": (["psi", "--sample", "x.csv", "--psi", "diam", "--levels", "8"], None),
    "psi-inradius-knn": (["psi", "--sample", "x.csv", "--psi", "inradius",
                          "--lambdas", "0.05:0.45:0.05"], None),
    "gamma-knn": (["gamma", "--x", "x.csv", "--y", "y.csv", "--psi", "diam", "--levels", "8"],
                  None),
    "order-knn": (["order", "--x", "x.csv", "--y", "y.csv", "--relation", "spread",
                   "--psi", "diam", "--levels", "8"], None),
    "simulate-2d": (["simulate", "--config", "exp.json"], {
        "experiment": "supnorm", "sampler": {"dist": "normal", "dim": 2},
        "n_schedule": [20, 40], "replications": 2, "seed": 3, "pairs": 400,
        "grid": [[-1.0, 1.0, 0.5], [-1.0, 1.0, 0.25]]}),
}


def _write_points(path, pts):
    rows = ["x1,x2"] + [f"{fmt(a)},{fmt(b)}" for a, b in pts]
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("name", sorted(CLI_CONTRACT))
def test_grid_commands_write_the_same_bytes_at_any_thread_count(tmp_path, monkeypatch,
                                                                 name):
    monkeypatch.chdir(tmp_path)
    _write_points(tmp_path / "x.csv", halton_normal(60, 2, 16))
    _write_points(tmp_path / "y.csv", 1.3 * halton_normal(60, 2, 17))
    argv, config = CLI_CONTRACT[name]
    if config is not None:
        (tmp_path / "exp.json").write_text(json.dumps(config))
    blobs = set()
    for threads in ("1", "2", "3", "1", "2", "3"):
        assert run(argv + ["--threads", threads, "--no-timestamp", "--out", "out"]) == 0
        side = (tmp_path / "bd.csv").read_bytes() if "--boundary-out" in argv else b""
        blobs.add((tmp_path / "out").read_bytes() + side)
    assert len(blobs) == 1
