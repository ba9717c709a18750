"""Command-line interface: verbs, outputs, exit codes."""
import json
from dataclasses import fields

from helike import formats
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
    assert list(formats.CONFIG_KEYS) == names
    assert set(CONFIG_FLAGS) <= set(names)
    # each verb takes the flags of exactly the keys it reads
    reads = {"solve": set(CONFIG_FLAGS),
             "converge": {"z", "state", "r_max", "order"},
             "zscan": {"l_max", "n_max", "r_max", "order"}}
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
    # the basis policy fixes the knot layout and quadrature: no key sets them
    for line in ("unknown_key = 1", "grid = linear", "quad_points = 10"):
        cfg.write_text(line + "\n")
        assert run(["solve", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 1
        assert "unknown key" in capsys.readouterr().err
    # gamma = 0 would put NaN knots on the exponential grid
    cfg.write_text("gamma = 0\n")
    assert run(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    # a negative gamma clusters the knots at the box edge: E = -0.80, not
    # -2.90, for He l1,n5
    cfg.write_text("gamma = -3\nz = 2\nl_max = 1\nn_max = 5\n")
    assert run(["solve", "--config", str(cfg),
                "--out", str(tmp_path)]) == 1
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
