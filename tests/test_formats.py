"""Config parsing and CSV/JSON/SVG emitters."""
import json
import xml.dom.minidom

import pytest

from helike.errors import InvalidParameterError
from helike.formats import (
    convergence_rows,
    parse_config_text,
    scan_rows,
    solve_rows,
    spectrum_rows,
    svg_line_plot,
    write_csv,
    write_json,
    write_scan_svg,
)
from helike.pipeline import RunConfig, default_gamma, run_solve, run_zscan

from helpers import read_csv


def test_parse_config_text():
    values = parse_config_text(
        "# comment\n"
        "z = 3.0\n"
        "state = 1s2s-3S   # inline comment\n"
        "l_max = 2\n"
        "\n"
        "r_max = 45.5\n"
    )
    assert values == {"z": 3.0, "state": "1s2s-3S", "l_max": 2,
                      "r_max": 45.5}


def test_parse_config_errors():
    with pytest.raises(InvalidParameterError):
        parse_config_text("zz = 1")
    with pytest.raises(InvalidParameterError):
        parse_config_text("just words")
    with pytest.raises(InvalidParameterError):
        parse_config_text("l_max = three")


def test_csv_round_trip(tmp_path):
    rows = [
        {"a": 1, "b": 2.5, "c": "text", "d": True, "e": None},
        {"a": -3, "b": 1.0e-12, "c": "x,y", "d": False, "e": None},
    ]
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d", "e"], rows)
    header = path.read_text().splitlines()[0]
    assert header == "a,b,c,d,e"
    assert read_csv(path) == rows


def test_csv_deterministic(tmp_path):
    rows = [{"x": 0.1234567890123456}]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["x"], rows)
    write_csv(p2, ["x"], rows)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def report():
    return run_solve(RunConfig(z=2.0, state="1s2s-3S", l_max=1, n_max=8))


@pytest.fixture(scope="module")
def scan():
    return run_zscan(charges=[1.5, 2.0])


def test_solve_rows_echo_config(report):
    row = solve_rows(report)[0]
    # every resolved config field shows up in the output row
    for key in ("l_max", "n_max", "order", "n_splines", "r_max", "gamma"):
        assert row[key] is not None
    assert row["state"] == "1s2s-3S"
    assert row["xi_polarized"] is not None


def test_spectrum_rows_trace(report):
    rows = spectrum_rows(report)
    total = sum(r["eigenvalue"] * r["degeneracy"] for r in rows)
    assert abs(total - 1.0) < 1e-10


def test_write_json_handles_dataclasses(tmp_path, report):
    path = tmp_path / "report.json"
    write_json(path, report)
    payload = json.loads(path.read_text())
    assert payload["config"]["z"] == 2.0
    assert payload["spectrum"]["eigenvalues"]
    assert payload["state"] == "1s2s-3S"


def test_scan_rows_fields(scan):
    rows = scan_rows(scan)
    assert len(rows) == 4
    assert all(r["inv_z"] == 1.0 / r["z"] for r in rows)
    assert {r["state"] for r in rows} == {"1s2s-1S", "1s2s-3S"}


def test_scan_rows_report_their_gamma(scan):
    # neither r_max nor gamma is pinned, so each row's knots follow its own
    # box: Z = 1.5 solves at r_max 80, gamma 6.288, not the Z = 2 gamma 6
    rows = scan_rows(scan)
    assert {r["r_max"] for r in rows} == {60.0, 80.0}
    for row in rows:
        assert row["gamma"] == default_gamma(row["r_max"])


def test_scan_json_echoes_no_box(scan, tmp_path):
    # the base config is resolved at its own Z = 2, a box no row used: each
    # row carries its z, r_max and gamma, and the config none of them
    path = tmp_path / "zscan.json"
    write_json(path, scan)
    payload = json.loads(path.read_text())
    assert not {"state", "z", "r_max", "gamma"} & set(payload["config"])
    for row in payload["rows"]:
        assert {"z", "r_max", "gamma"} <= set(row)
    assert {row["r_max"] for row in payload["rows"]} == {60.0, 80.0}


def test_convergence_rows():
    from helike.pipeline import run_convergence
    result = run_convergence(RunConfig(z=2.0, state="ground"), [0], [6, 8])
    rows = convergence_rows(result)
    assert [r["n_max"] for r in rows] == [6, 8]


def test_svg_well_formed(scan, tmp_path):
    path = tmp_path / "plot.svg"
    write_scan_svg(path, scan, "s_linear")
    doc = xml.dom.minidom.parse(str(path))
    assert doc.documentElement.tagName == "svg"
    text = path.read_text()
    assert "polyline" in text
    assert "stroke-dasharray" in text    # 0.5 / 1.0 reference lines


def test_svg_needs_data():
    with pytest.raises(InvalidParameterError):
        svg_line_plot([], "t", "x", "y")
