"""Command-line interface: verbs, outputs, exit codes."""
import json

from helike.cli import main
from helike.formats import read_csv


def run(argv):
    return main(argv)


def test_solve_writes_outputs(tmp_path, capsys):
    code = run(["solve", "--z", "2", "--state", "1s2s-3S",
                "--lmax", "1", "--nmax", "8",
                "--out", str(tmp_path), "--format", "csv",
                "--format", "json"])
    assert code == 0
    rows = read_csv(tmp_path / "state.csv")
    assert len(rows) == 1
    assert rows[0]["state"] == "1s2s-3S"
    assert rows[0]["s_linear"] >= 0.5
    spectrum = read_csv(tmp_path / "spectrum.csv")
    assert abs(sum(r["eigenvalue"] * r["degeneracy"]
                   for r in spectrum) - 1.0) < 1e-10
    payload = json.loads((tmp_path / "state.json").read_text())
    assert payload["n_max"] == 8
    out = capsys.readouterr().out
    assert "S_L" in out


def test_solve_config_file_with_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("z = 2.0\nstate = ground\nl_max = 1\nn_max = 8\n")
    code = run(["solve", "--config", str(cfg), "--nmax", "6",
                "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "state.csv")
    assert rows[0]["n_max"] == 6


def test_converge_verb(tmp_path):
    code = run(["converge", "--z", "2", "--state", "ground",
                "--lvalues", "0,1", "--nvalues", "6,8",
                "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 4


def test_zscan_verb_with_svg(tmp_path):
    code = run(["zscan", "--charges", "1.5,2", "--out", str(tmp_path),
                "--format", "csv", "--format", "svg", "--threads", "2"])
    assert code == 0
    rows = read_csv(tmp_path / "zscan.csv")
    assert len(rows) == 4
    assert (tmp_path / "zscan_linear.svg").exists()
    assert (tmp_path / "zscan_von_neumann.svg").exists()


def test_zscan_partial_failure_exit_code(tmp_path, capsys):
    code = run(["zscan", "--charges", "0.5,2", "--states", "1s2s-3S",
                "--out", str(tmp_path)])
    assert code == 3
    assert len(read_csv(tmp_path / "zscan.csv")) == 1
    assert "failed" in capsys.readouterr().err


def test_config_error_exit_codes(tmp_path, capsys):
    assert run(["solve", "--z", "0.5", "--out", str(tmp_path)]) == 1
    assert run(["solve", "--z", "2", "--state", "bogus",
                "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 1\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    # gamma = 0 would put NaN knots on the exponential grid
    cfg.write_text("gamma = 0\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert run(["zscan", "--charges", ",", "--out", str(tmp_path)]) == 1
    # argparse usage errors share the code; --threads and svg are zscan-only
    assert run(["solve", "--lmax", "x"]) == 1
    assert run(["solve", "--threads", "2", "--out", str(tmp_path)]) == 1
    assert run(["converge", "--format", "svg", "--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["solve", "--help"]) == 0
    assert "--escalate-box" in capsys.readouterr().out


def test_selftest_fast(capsys):
    assert run(["selftest", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_unknown_verb():
    assert run(["frobnicate"]) == 1
