"""The benchmark's three workloads, run through helike's public entry points.

Each workload is one pass of a closed loop with a single client: it calls
the entry point, writes the files the matching CLI verb would write, and
returns {op: (energy, S_L, S_vN)} for every op it computed.  `read_back`
parses the same three numbers out of the written files, so the check
covers what a user of the CLI reads, not only what stayed in memory.

helike is looked up through module attributes at call time
(`pipeline.run_zscan`, `formats.write_csv`, ...), so the traced pass sees
the wrappers that spans.py puts in place.
"""
from __future__ import annotations

import csv
import json
import traceback
from pathlib import Path

from helike import formats, pipeline

# a quarter of default_scan_charges(), spread over it: the high-Z limit, He,
# and the critical region down to Z = 1
SCAN_CHARGES = [100.0, 25.0, 5.0, 2.0, 1.5, 1.2, 1.05, 1.0]
SCAN_STATES = ("1s2s-1S", "1s2s-3S")
HE_STATES = ("ground", "1s2s-1S", "1s2s-3S")
CONVERGE_L = [0, 1, 2, 3, 4]
CONVERGE_N = [10, 15, 20, 25, 30]


def _values(obj) -> tuple[float, float, float]:
    return (float(obj.energy), float(obj.s_linear), float(obj.s_von_neumann))


def _csv_values(row: dict) -> tuple[float, float, float]:
    return (float(row["energy"]), float(row["s_linear"]),
            float(row["s_von_neumann"]))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _zscan_key(z: float, state: str) -> str:
    return f"Z={z:g} {state}"


def run_zscan(out: Path, mark) -> dict:
    """`helike zscan --format csv --format json --format svg`, 8 charges."""
    mark(None)
    result = pipeline.run_zscan(charges=SCAN_CHARGES)
    mark("write")
    formats.write_csv(out / "zscan.csv", formats.SCAN_FIELDS,
                      formats.scan_rows(result))
    formats.write_json(out / "zscan.json", result)
    formats.write_scan_svg(out / "zscan_linear.svg", result, "s_linear")
    formats.write_scan_svg(out / "zscan_von_neumann.svg", result,
                           "s_von_neumann")
    return {_zscan_key(r.z, r.state): _values(r) for r in result.rows}


def read_zscan(out: Path) -> dict:
    in_json = {_zscan_key(r["z"], r["state"])
               for r in json.loads((out / "zscan.json").read_text())["rows"]}
    return {k: v for k, v in (
        (_zscan_key(float(r["z"]), r["state"]), _csv_values(r))
        for r in _read_csv(out / "zscan.csv")) if k in in_json}


def run_he_l5n40(out: Path, mark) -> dict:
    """He at the converged truncation: one context, three states."""
    mark("context")
    ctx = pipeline.build_context(
        pipeline.RunConfig(z=2, l_max=5, n_max=40, r_max=60))
    values = {}
    for state in HE_STATES:
        mark(state)
        try:
            report = pipeline.solve_in_context(ctx, state)
        except Exception:   # one failed op must not hide the others
            traceback.print_exc()
            continue
        d = out / state
        d.mkdir()
        formats.write_csv(d / "state.csv", formats.SOLVE_FIELDS,
                          formats.solve_rows(report))
        formats.write_csv(d / "spectrum.csv", formats.SPECTRUM_FIELDS,
                          formats.spectrum_rows(report))
        payload = formats.solve_rows(report)[0]
        payload["spectrum"] = formats.spectrum_rows(report)
        formats.write_json(d / "state.json", payload)
        values[state] = _values(report)
    return values


def read_he_l5n40(out: Path) -> dict:
    values = {}
    for state in HE_STATES:
        d = out / state
        if not (d / "state.csv").exists():
            continue
        (row,) = _read_csv(d / "state.csv")
        if json.loads((d / "state.json").read_text())["state"] == state:
            values[state] = _csv_values(row)
    return values


def _cell_key(l_max: int, n_max: int) -> str:
    return f"l_max={l_max} n_max={n_max}"


def run_converge_l4n30(out: Path, mark) -> dict:
    """`helike converge` on the He ground state over a 5 x 5 table."""
    mark("table")
    result = pipeline.run_convergence(
        pipeline.RunConfig(z=2, state="ground", r_max=60),
        CONVERGE_L, CONVERGE_N)
    formats.write_csv(out / "convergence.csv", formats.CONVERGENCE_FIELDS,
                      formats.convergence_rows(result))
    formats.write_json(out / "convergence.json", result)
    return {_cell_key(r.l_max, r.n_max): _values(r) for r in result.rows}


def read_converge_l4n30(out: Path) -> dict:
    in_json = {_cell_key(r["l_max"], r["n_max"]) for r in
               json.loads((out / "convergence.json").read_text())["rows"]}
    return {k: v for k, v in (
        (_cell_key(int(r["l_max"]), int(r["n_max"])), _csv_values(r))
        for r in _read_csv(out / "convergence.csv")) if k in in_json}


# name -> (one pass, parse its files, the ops a pass computes)
WORKLOADS = {
    "zscan": (run_zscan, read_zscan,
              [_zscan_key(z, s) for z in SCAN_CHARGES for s in SCAN_STATES]),
    "he_l5n40": (run_he_l5n40, read_he_l5n40, list(HE_STATES)),
    "converge_l4n30": (run_converge_l4n30, read_converge_l4n30,
                       [_cell_key(l, n) for l in CONVERGE_L
                        for n in CONVERGE_N]),
}
