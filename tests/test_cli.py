"""Command-line interface: verbs, outputs, exit codes."""
import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from helike import formats, pipeline, selftest
from helike.cli import CONFIG_FLAGS, _run_config, build_parser, main
from helike.pipeline import SCAN_DEFAULTS, RunConfig, default_gamma

from helpers import read_csv


def run(argv):
    return main(argv)


def test_solve_writes_outputs(tmp_path, capsys):
    # --rmax pins the box (the Z = 2 policy would give 60) and its gamma
    code = run(["solve", "--z", "2", "--state", "1s2s-3S",
                "--lmax", "1", "--nmax", "8", "--rmax", "80",
                "--out", str(tmp_path), "--format", "csv",
                "--format", "json"])
    assert code == 0
    rows = read_csv(tmp_path / "state.csv")
    assert len(rows) == 1
    assert rows[0]["state"] == "1s2s-3S"
    # the basis has one knot and quadrature policy, so no column for either
    assert not {"grid", "quad_points"} & set(rows[0])
    assert rows[0]["r_max"] == 80.0
    # the CSV keeps 12 significant digits
    assert abs(rows[0]["gamma"] - default_gamma(80.0)) < 1e-10
    # ... and echoes the rest of the basis policy: n_max + 4 splines
    assert (rows[0]["order"], rows[0]["n_splines"]) == (7, 12)
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


def test_config_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("z = 2.0\nn_max = 20\n")
    config = _run_config(build_parser().parse_args(
        ["solve", "--config", str(path), "--z", "3"]))
    assert config.z == 3.0          # CLI override wins
    assert config.n_max == 20       # file value survives
    assert config.state == RunConfig().state
    # a file value beats the verb's default
    path.write_text("l_max = 1\n")
    config = _run_config(build_parser().parse_args(
        ["zscan", "--config", str(path)]), SCAN_DEFAULTS)
    assert (config.l_max, config.n_max) == (1, SCAN_DEFAULTS["n_max"])


def test_config_keys_follow_run_config():
    names = [f.name for f in fields(RunConfig)]
    # the basis is a policy of these, with no settings of its own
    assert names == ["z", "state", "l_max", "n_max", "r_max"]
    assert list(formats.CONFIG_KEYS) == names
    assert set(CONFIG_FLAGS) == set(names)
    # each verb takes the flags of exactly the keys it reads
    reads = {"solve": set(CONFIG_FLAGS),
             "converge": {"z", "state", "r_max"},
             "zscan": {"l_max", "n_max", "r_max"}}
    parser = build_parser()
    for verb, keys in reads.items():
        for key, (flag, _) in CONFIG_FLAGS.items():
            try:
                args = parser.parse_args([verb, flag, "3"])
            except SystemExit:
                assert key not in keys, (verb, flag)
            else:
                assert key in keys, (verb, flag)
                assert getattr(args, key) == formats.CONFIG_KEYS[key]("3")


def test_converge_verb(tmp_path):
    code = run(["converge", "--z", "2", "--state", "ground",
                "--lvalues", "0,1", "--nvalues", "6,8",
                "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 4
    # l_max = 3 has no cell below n_max = 3; the other cells still run
    code = run(["converge", "--lvalues", "0,1,2,3", "--nvalues", "2,3",
                "--out", str(tmp_path)])
    assert code == 0
    assert len(read_csv(tmp_path / "convergence.csv")) == 5
    # the table cuts only at its axes: --lmax/--nmax and a config file's
    # l_max/n_max would go unused, so they are errors, not ignored
    assert run(["converge", "--lmax", "9", "--nmax", "3", "--lvalues",
                "0,1", "--nvalues", "4,6", "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "cut.cfg"
    for key in ("l_max = 1", "n_max = 6"):
        cfg.write_text(key + "\n")
        assert run(["converge", "--config", str(cfg), "--lvalues", "0,1",
                    "--nvalues", "4,6", "--out", str(tmp_path)]) == 1


def test_zscan_verb_with_svg(tmp_path):
    code = run(["zscan", "--charges", "1.5,2", "--out", str(tmp_path),
                "--format", "csv", "--format", "svg", "--format", "json"])
    assert code == 0
    rows = read_csv(tmp_path / "zscan.csv")
    assert len(rows) == 4
    assert not {"grid", "quad_points"} & set(rows[0])
    # the payload echoes the states a scan solves, not RunConfig.state
    payload = json.loads((tmp_path / "zscan.json").read_text())
    assert payload["states"] == ["1s2s-1S", "1s2s-3S"]
    assert "state" not in payload["config"]
    assert (tmp_path / "zscan_linear.svg").exists()
    assert (tmp_path / "zscan_von_neumann.svg").exists()


def test_zscan_config_file_sets_truncation(tmp_path):
    # the file beats the scan's default l_max = 2, n_max = 15
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("l_max = 1\nn_max = 6\n")
    assert run(["zscan", "--config", str(cfg), "--charges", "2",
                "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "zscan.csv")
    assert [(r["l_max"], r["n_max"]) for r in rows] == [(1, 6), (1, 6)]


def test_zscan_takes_no_charge_flag_or_key(tmp_path):
    # the scan's charges come from --charges: a --z or z key would go unused
    assert run(["zscan", "--z", "5", "--charges", "2",
                "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("z = 3\n")
    assert run(["zscan", "--config", str(cfg), "--charges", "2",
                "--out", str(tmp_path)]) == 1


def test_zscan_partial_failure_exit_code(tmp_path, capsys):
    code = run(["zscan", "--charges", "0.5,2", "--states", "1s2s-3S",
                "--out", str(tmp_path)])
    assert code == 3
    assert len(read_csv(tmp_path / "zscan.csv")) == 1
    assert "failed" in capsys.readouterr().err
    # no rows at all: no plot, the same partial-failure exit
    code = run(["zscan", "--charges", "2", "--states", "1s9s-1S",
                "--lmax", "1", "--nmax", "5", "--format", "svg",
                "--out", str(tmp_path)])
    assert code == 3
    assert "failed:" in capsys.readouterr().err
    assert not (tmp_path / "zscan_linear.svg").exists()


def test_config_error_exit_codes(tmp_path, capsys):
    assert run(["solve", "--z", "0.5", "--out", str(tmp_path)]) == 1
    assert run(["solve", "--z", "2", "--state", "bogus",
                "--out", str(tmp_path)]) == 1
    cfg = tmp_path / "bad.cfg"
    # the basis policy fixes the knots, the spline order and count and the
    # quadrature: no key sets them
    for line in ("unknown_key = 1", "grid = linear", "quad_points = 10",
                 "order = 5", "n_splines = 30", "gamma = 5"):
        cfg.write_text(line + "\n")
        assert run(["solve", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 1
        assert "unknown key" in capsys.readouterr().err
    # gamma = 0 would put NaN knots on the exponential grid, and a negative
    # gamma clusters them at the box edge (E = -0.80, not -2.90, for He
    # l1,n5): neither can be set
    cfg.write_text("gamma = 0\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    cfg.write_text("gamma = -3\nz = 2\nl_max = 1\nn_max = 5\n")
    assert run(["solve", "--config", str(cfg),
                "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("unknown key 'gamma'") == 2
    assert run(["zscan", "--charges", ",", "--out", str(tmp_path)]) == 1
    # zscan solves --states, so a config file's state would go unused
    cfg.write_text("state = 1s3s-1S\n")
    assert run(["zscan", "--config", str(cfg), "--charges", "2",
                "--out", str(tmp_path)]) == 1
    assert run(["converge", "--lvalues=-1,1", "--out", str(tmp_path)]) == 1
    # argparse usage errors share the code: svg is zscan-only, zscan takes
    # --states, not --state, converge takes no --lmax/--nmax, and no verb
    # takes --threads
    assert run(["solve", "--lmax", "x"]) == 1
    assert run(["zscan", "--state", "1s3s-1S", "--out", str(tmp_path)]) == 1
    assert run(["solve", "--threads", "2", "--out", str(tmp_path)]) == 1
    assert run(["converge", "--format", "svg", "--out", str(tmp_path)]) == 1
    assert run(["converge", "--nmax", "3", "--out", str(tmp_path)]) == 1
    # the spline order is the basis policy's, on every verb
    for verb in ("solve", "converge", "zscan"):
        assert run([verb, "--order", "5", "--out", str(tmp_path)]) == 1
    # the box comes from --rmax or the Z policy; no verb searches for one
    assert run(["solve", "--escalate-box", "--out", str(tmp_path)]) == 1
    assert run(["zscan", "--escalate-box", "--out", str(tmp_path)]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["solve", "--help"]) == 0
    capsys.readouterr()
    # a box or charge out of range is a configuration error, not a traceback
    assert run(["solve", "--rmax", "-5", "--out", str(tmp_path)]) == 1
    assert "configuration error" in capsys.readouterr().err
    # a scan checks its base config once: a bad box fails the scan, not
    # each charge
    for rmax in ("0", "-5"):
        assert run(["zscan", "--rmax", rmax, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "configuration error: r_max must be finite and positive" \
            in err and "Traceback" not in err
    # ... and costs a scan only its own rows
    code = run(["zscan", "--charges", "inf,2", "--states", "1s2s-3S",
                "--out", str(tmp_path)])
    assert code == 3
    assert [r["z"] for r in read_csv(tmp_path / "zscan.csv")] == [2.0]
    assert "failed: Z=inf" in capsys.readouterr().err


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_unknown_verb():
    assert run(["frobnicate"]) == 1


def test_pure_state_writes_positive_zero_entropy(tmp_path, capsys):
    # one configuration, 1s1s: a pure state, whose S_vN is +0
    assert run(["solve", "--lmax", "0", "--nmax", "1", "--out",
                str(tmp_path), "--format", "csv", "--format", "json"]) == 0
    assert "S_vN = 0.0000000" in capsys.readouterr().out
    keys = ("s_von_neumann", "s_von_neumann_nats")
    with open(tmp_path / "state.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert [row[k] for k in keys] == ["0", "0"]
    payload = json.loads((tmp_path / "state.json").read_text())
    assert [math.copysign(1.0, payload[k]) for k in keys] == [1.0, 1.0]
    assert run(["converge", "--lvalues", "0", "--nvalues", "1", "--out",
                str(tmp_path), "--format", "csv", "--format", "json"]) == 0
    with open(tmp_path / "convergence.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["s_von_neumann"] == "0"
    (row,) = json.loads((tmp_path / "convergence.json").read_text())["rows"]
    assert math.copysign(1.0, row["s_von_neumann"]) == 1.0


@pytest.mark.parametrize("verb, name", [("solve", "run_solve"),
                                        ("converge", "run_convergence"),
                                        ("zscan", "run_zscan")])
def test_unusable_output_directory_fails_before_the_run(
        tmp_path, capsys, monkeypatch, verb, name):
    def never(*args, **kwargs):
        raise AssertionError(f"{name} ran before --out was checked")

    monkeypatch.setattr(pipeline, name, never)
    path = tmp_path / "a-file"
    path.write_text("")
    assert run([verb, "--out", str(path)]) == 1
    assert "io error" in capsys.readouterr().err


def test_failure_exit_codes(tmp_path, capsys, monkeypatch):
    # the assembly's memory guard: a numerical failure, before any H
    assert run(["solve", "--lmax", "9", "--nmax", "80",
                "--out", str(tmp_path)]) == 2
    assert "numerical failure: MemoryError" in capsys.readouterr().err
    # a box below any scale gives H non-finite entries: a package error
    with np.errstate(all="ignore"):
        assert run(["solve", "--rmax", "1e-300", "--out",
                    str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: InconsistentInputError: Hamiltonian has" in err
    assert "non-finite entries" in err
    assert run(["zscan", "--charges", "2,x", "--out", str(tmp_path)]) == 1
    assert "bad numeric list '2,x'" in capsys.readouterr().err
    monkeypatch.setattr(selftest, "CHECKS",
                        [("always fails", lambda: 1.0, 0.0)])
    assert run(["selftest"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_ambiguous_state_warns(tmp_path, capsys):
    # at Z = 1 the 1s2s singlet spreads over the box's 1sns continuum
    assert run(["solve", "--z", "1", "--state", "1s2s-1S", "--lmax", "2",
                "--nmax", "15", "--out", str(tmp_path)]) == 0
    assert ("warning: ambiguous state (energy-order pick); best "
            "configuration weight 0.333") in capsys.readouterr().err
