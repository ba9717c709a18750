"""Flat-file input/output: key=value configs, CSV, JSON, and SVG plots.

All emitters are deterministic: the same data produces byte-identical
files.  Wall-clock metadata is kept out of the payloads entirely so CSV
and JSON round-trip cleanly in tests and diffs.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import typing
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .pipeline import (
    ConvergenceResult,
    RunConfig,
    StateReport,
    ZScanResult,
)

FLOAT_FMT = "%.12g"

# -- flat config files --------------------------------------------------------

# RunConfig's fields, each typed by its annotation's non-None member
CONFIG_KEYS = {
    name: next(t for t in typing.get_args(hint) or (hint,)
               if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines; '#' starts a comment; unknown keys error."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(
                f"config line {lineno}: expected key = value, got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise InvalidParameterError(
                f"config line {lineno}: unknown key {key!r}"
            )
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise InvalidParameterError(
                f"config line {lineno}: bad value {value!r} for {key}"
            ) from None
    return out


def load_config_file(path) -> dict:
    return parse_config_text(Path(path).read_text())


# -- generic emitters ---------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FMT % value
    if value is None:
        return ""
    return str(value)


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> None:
    """CSV with a mandatory header row; floats at 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: _jsonable(getattr(obj, f.name))
               for f in dataclasses.fields(obj)}
        if isinstance(obj, ZScanResult):
            # a scan solves .states instead, and each row has its own box
            for key in ("state", "z", "r_max", "gamma"):
                del out["config"][key]
        return out
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload) -> None:
    """JSON dump handling dataclasses and numpy scalars/arrays."""
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- row builders for the pipeline result types -------------------------------

SOLVE_FIELDS = [
    "z", "state", "spin", "energy", "threshold",
    "s_linear", "s_von_neumann", "s_von_neumann_nats",
    "xi_sz0", "xi_polarized",
    "dominant", "dominant_weight", "selection", "ambiguous",
    "l_max", "n_max", "order", "n_splines", "r_max", "gamma",
]

SCAN_FIELDS = [
    "z", "inv_z", "state", "energy", "s_linear", "s_von_neumann",
    "dominant_weight", "r_max", "selection",
    "l_max", "n_max", "order", "n_splines", "gamma",
]

CONVERGENCE_FIELDS = ["l_max", "n_max", "energy", "s_linear", "s_von_neumann"]

SPECTRUM_FIELDS = ["l", "eigenvalue", "degeneracy"]


def _rows(items, fields: list[str], config: RunConfig) -> list[dict]:
    """One row per item: each field from the item, else from config."""
    cols = dataclasses.asdict(config)
    return [{name: getattr(item, name) if hasattr(item, name)
             else cols[name] for name in fields} for item in items]


def solve_rows(report: StateReport) -> list[dict]:
    return _rows([report], SOLVE_FIELDS, report.config)


def spectrum_rows(report: StateReport) -> list[dict]:
    """(l, eigenvalue, degeneracy) triples of the occupation spectrum."""
    spec = report.spectrum
    return [
        {"l": int(l), "eigenvalue": float(lam), "degeneracy": int(g)}
        for l, lam, g in zip(spec.l_labels, spec.eigenvalues,
                             spec.degeneracies)
    ]


def scan_rows(result: ZScanResult) -> list[dict]:
    return _rows(result.rows, SCAN_FIELDS, result.config)


def convergence_rows(result: ConvergenceResult) -> list[dict]:
    return [dataclasses.asdict(r) for r in result.rows]


# -- SVG line plots -----------------------------------------------------------

SVG_WIDTH = 640
SVG_HEIGHT = 440
SVG_MARGIN = 60
SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, 5)
    return [float(v) for v in raw]


def svg_line_plot(series: list[tuple[str, np.ndarray, np.ndarray]],
                  title: str, xlabel: str, ylabel: str,
                  reference_lines: tuple[float, ...] = ()) -> str:
    """Minimal self-contained SVG: axes, ticks, polylines, dashed references.

    series is a list of (label, x, y).  Returns the SVG document as a string.
    """
    if not series:
        raise InvalidParameterError("svg_line_plot needs at least one series")
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ys = np.concatenate([ys, np.array([v for v in reference_lines])]) \
        if reference_lines else ys
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad
    left, top = SVG_MARGIN, 40
    right, bottom = SVG_WIDTH - 30, SVG_HEIGHT - SVG_MARGIN

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(y):
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        'stroke="black"/>',
    ]
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        parts.append(f'<line x1="{px:.1f}" y1="{bottom}" x2="{px:.1f}" '
                     f'y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{bottom + 20}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.3g}</text>')
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        parts.append(f'<line x1="{left - 5}" y1="{py:.1f}" x2="{left}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{py + 4:.1f}" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{yv:.5g}</text>')
    parts.append(f'<text x="{(left + right) / 2:.1f}" y="{SVG_HEIGHT - 12}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(top + bottom) / 2:.1f}" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13" transform="rotate(-90 16 '
                 f'{(top + bottom) / 2:.1f})">{ylabel}</text>')
    for ref in reference_lines:
        if y_lo <= ref <= y_hi:
            py = sy(ref)
            parts.append(f'<line x1="{left}" y1="{py:.1f}" x2="{right}" '
                         f'y2="{py:.1f}" stroke="gray" '
                         'stroke-dasharray="6 4"/>')
    for idx, (label, x, y) in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                       for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 + 16 * idx
        parts.append(f'<line x1="{right - 120}" y1="{ly - 4}" '
                     f'x2="{right - 96}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{right - 90}" y="{ly}" '
                     'font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_scan_svg(path, result: ZScanResult,
                   quantity: str = "s_linear") -> None:
    """Entropy-vs-1/Z plot for every scanned state with rows, 0.5/1.0 guides."""
    if quantity not in ("s_linear", "s_von_neumann"):
        raise InvalidParameterError(f"cannot plot {quantity!r}")
    series = []
    for state in result.states:
        inv_z, s_l, s_vn = result.series(state)
        if not len(inv_z):
            continue
        y = s_l if quantity == "s_linear" else s_vn
        series.append((state, inv_z, y))
    name = "linear entropy" if quantity == "s_linear" else "von Neumann entropy"
    doc = svg_line_plot(series, name, "1/Z", name,
                        reference_lines=(0.5, 1.0))
    Path(path).write_text(doc + "\n")
