"""File formats, provenance headers, and atomic output writing.

Point CSV: header `x1,...,xd`, one point per row.  Frames are flattened
row-major with header `m11,m12,...` plus an explicit shape such as 3x2.
Newick files hold one tree per line; `#` lines are comments.  All
numeric output uses 17-significant-digit formatting so round trips are
exact, and files are written atomically (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time

import numpy as np

from . import __version__
from .levelsets import LatticeGrid, expand_range
from .treespace import parse_newick_lines


class DataError(ValueError):
    """Malformed input file or value."""


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def provenance(payload: dict, seed: int | None, no_timestamp: bool) -> dict:
    out = {
        "version": __version__,
        "seed": seed,
        "config": config_digest(payload),
    }
    if not no_timestamp:
        out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return out


def provenance_comment_lines(prov: dict) -> list[str]:
    return [f"# lensdepth {prov['version']}",
            f"# seed={prov['seed']} config=sha256:{prov['config']}"] + \
        ([f"# timestamp={prov['timestamp']}"] if "timestamp" in prov else [])


def write_table(path: str, header: list[str], rows, prov: dict) -> None:
    lines = provenance_comment_lines(prov)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _json_values(value):
    """`value` with every float in its dicts and lists that is not finite
    replaced by None (JSON null)."""
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_values(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_values(v) for v in value]
    return value


def write_json(path: str, payload: dict, prov: dict) -> None:
    """Write `payload` under its provenance as strict JSON: a float that
    is not finite is written as null, not as an Infinity or NaN token,
    which strict JSON parsers refuse."""
    body = _json_values({"provenance": prov, **payload})
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    atomic_write_text(path, text + "\n")


def read_table_rows(path: str):
    """Yield (lineno, cells) for non-comment rows; the first is the header."""
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                yield lineno, stripped.split(",")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def read_points_csv(path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Load a point set; returns (n, d) or, with a frame `shape`, (n, d, k)."""
    header = None
    rows = []
    for lineno, cells in read_table_rows(path):
        if header is None:
            header = [c.strip() for c in cells]
            continue
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if len(rows[-1]) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(rows[-1])}")
    if header is None or not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    if shape is not None:
        d, k = shape
        if arr.shape[1] != d * k:
            raise DataError(
                f"{path}: {arr.shape[1]} columns cannot form {d}x{k} frames")
        return arr.reshape(-1, d, k)
    return arr


def read_newick_file(path: str):
    """Trees and their 1-based line numbers from a one-tree-per-line file."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    try:
        trees, numbers = parse_newick_lines(lines)
    except Exception as exc:
        raise DataError(f"{path}: {exc}") from None
    if not trees:
        raise DataError(f"{path}: no trees found")
    return trees, numbers


def parse_shape(text: str) -> tuple[int, int]:
    try:
        d, k = text.lower().split("x")
        return int(d), int(k)
    except ValueError:
        raise DataError(f"bad frame shape {text!r}; expected e.g. 3x2") from None


def _finite_floats(text: str, pieces) -> list[float]:
    try:
        values = [float(p) for p in pieces]
    except ValueError:
        raise DataError(f"bad number in {text!r}") from None
    if not all(np.isfinite(values)):
        raise DataError(f"non-finite number in {text!r}")
    return values


def parse_grid_spec(text: str) -> LatticeGrid:
    """Parse "lo:hi:step[,lo:hi:step...]" into a lattice."""
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise DataError(f"bad grid axis {part!r}; expected lo:hi:step")
        axes.append(tuple(_finite_floats(part, pieces)))
    return LatticeGrid(tuple(axes))


def parse_float_range(text: str) -> np.ndarray:
    """A single float, or "lo:hi:step" (both endpoints included when hit)."""
    pieces = text.split(":")
    if len(pieces) == 1:
        return np.array(_finite_floats(text, pieces))
    if len(pieces) != 3:
        raise DataError(f"bad range {text!r}; expected lo:hi:step")
    lo, hi, step = _finite_floats(text, pieces)
    if step <= 0 or hi < lo:
        raise DataError(f"bad range {text!r}")
    return expand_range(lo, hi, step, DataError)


def parse_int_range(text: str) -> list[int]:
    """A single integer, or "a..b" inclusive."""
    try:
        bounds = [int(p) for p in text.split("..")]
    except ValueError:
        raise DataError(f"bad integer range {text!r}") from None
    if len(bounds) == 1:
        return bounds
    if len(bounds) != 2 or bounds[1] < bounds[0]:
        raise DataError(f"bad range {text!r}")
    return list(range(bounds[0], bounds[1] + 1))


# ---------------------------------------------------------------------------
# Minimal static SVG output


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in values]


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f")


def _svg_frame(width, height, body, xlabel, ylabel) -> str:
    """A complete SVG document: white background, the `body` elements,
    and the two axis labels."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *body,
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="12" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 12 {height // 2})" '
        f'text-anchor="middle">{ylabel}</text>',
        "</svg>"])


def svg_scatter(groups: dict, xlabel="", ylabel="") -> str:
    """480 x 480 scatter plot of labelled (x, y) point groups."""
    width = height = 480
    m = 40
    xs = [p[0] for pts in groups.values() for p in pts]
    ys = [p[1] for pts in groups.values() for p in pts]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    body = []
    for gi, (label, pts) in enumerate(sorted(groups.items())):
        color = _PALETTE[gi % len(_PALETTE)]
        px = _scale([p[0] for p in pts], lo_x, hi_x, m, width - m)
        py = _scale([p[1] for p in pts], lo_y, hi_y, height - m, m)
        for x, y in zip(px, py):
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                        f'fill="{color}" fill-opacity="0.7"/>')
        body.append(f'<text x="{m + 4}" y="{m + 14 * (gi + 1)}" '
                    f'fill="{color}" font-size="12">{label}</text>')
    return _svg_frame(width, height, body, xlabel, ylabel)


def svg_curves(curves: dict, ylabel="") -> str:
    """560 x 400 line plot of labelled (level array, y array) curves."""
    width, height = 560, 400
    m = 40
    xs = np.concatenate([np.asarray(x) for x, _ in curves.values()])
    ys = np.concatenate([np.asarray(y) for _, y in curves.values()])
    lo_x, hi_x = float(xs.min()), float(xs.max())
    lo_y, hi_y = float(ys.min()), float(ys.max())
    body = []
    for gi, (label, (x, y)) in enumerate(sorted(curves.items())):
        color = _PALETTE[gi % len(_PALETTE)]
        px = _scale(list(x), lo_x, hi_x, m, width - m)
        py = _scale(list(y), lo_y, hi_y, height - m, m)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        body.append(f'<polyline points="{pts}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        body.append(f'<text x="{m + 4}" y="{m + 14 * (gi + 1)}" '
                    f'fill="{color}" font-size="12">{label}</text>')
    return _svg_frame(width, height, body, "level", ylabel)
