"""Pipeline orchestration: configs, solves, convergence grids, scans."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike import pipeline
from helike.errors import InvalidParameterError
from helike.pipeline import (
    SCAN_DEFAULTS,
    RunConfig,
    build_context,
    count_interior_extrema,
    default_box_radius,
    default_scan_charges,
    parse_state,
    run_convergence,
    run_solve,
    run_zscan,
    solve_in_context,
)


def test_parse_state():
    assert parse_state("1s2s-3S") == ((1, 2), 1)
    assert parse_state("1s2s-1S") == ((1, 2), 0)
    assert parse_state("1s2s") == ((1, 2), 0)
    assert parse_state("ground") == ((1, 1), 0)
    assert parse_state("1s3s^triplet") == ((1, 3), 1)
    assert parse_state("2s1s-3S") == ((1, 2), 1)
    assert parse_state("1s2") == ((1, 1), 0)
    with pytest.raises(InvalidParameterError):
        parse_state("1s1s-3S")
    with pytest.raises(InvalidParameterError):
        parse_state("1s2s-5S")
    with pytest.raises(InvalidParameterError):
        parse_state("1s2p")


def test_box_radius_policy():
    assert_allclose(default_box_radius(2.0), 60.0)
    assert_allclose(default_box_radius(100.0), 1.2)
    # continuous across the Z = 2 switch and growing toward Z = 1
    assert_allclose(default_box_radius(2.0 + 1e-12),
                    default_box_radius(2.0 - 1e-12), rtol=1e-6)
    assert default_box_radius(1.1) > default_box_radius(1.5) > \
        default_box_radius(2.0)
    assert default_box_radius(1.0) == 1200.0
    with pytest.raises(InvalidParameterError):
        default_box_radius(0.0)


def test_config_resolution_and_validation():
    config = RunConfig(z=2.0, n_max=15).resolve()
    assert config.n_splines == 19
    assert config.r_max == 60.0
    assert config.quad_points == 8
    RunConfig(z=2.0).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(z=0.5).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(l_max=5, n_max=4).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(n_splines=10, n_max=15).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(state="2p3p").validate()


def test_run_solve_helium_ground():
    report = run_solve(RunConfig(z=2.0, state="ground", l_max=2, n_max=15))
    assert abs(report.energy - (-2.9026)) < 1e-3
    assert abs(report.s_linear - 0.0161) < 1e-3
    assert report.selection == "overlap"
    assert not report.ambiguous
    assert report.dominant == "1s1s"
    assert report.xi_polarized is None
    assert_allclose(report.s_von_neumann_nats,
                    report.s_von_neumann * np.log(2.0))
    assert_allclose(report.xi_sz0, report.s_linear, atol=1e-12)


def test_run_solve_triplet_spin_cases():
    report = run_solve(RunConfig(z=2.0, state="1s2s-3S", l_max=1, n_max=10))
    purity = 1.0 - report.s_linear
    assert_allclose(report.xi_sz0, 1.0 - purity)
    assert_allclose(report.xi_polarized, 1.0 - 2.0 * purity)
    assert report.s_linear >= 0.5 - 1e-12


def test_escalation_keeps_stable_box():
    config = RunConfig(z=2.0, state="1s2s-3S", l_max=1, n_max=10)
    plain = run_solve(config)
    escalated = run_solve(config, escalate_box=True)
    # default box is already converged, so escalation changes nothing
    assert escalated.config.r_max == plain.config.r_max
    assert_allclose(escalated.energy, plain.energy, atol=1e-12)


def test_run_convergence_properties():
    result = run_convergence(RunConfig(z=2.0, state="ground"),
                             [0, 1, 2], [8, 12])
    table = {(r.l_max, r.n_max): r for r in result.rows}
    assert len(table) == 6
    # variational improvement along both truncation axes
    assert table[(1, 12)].energy < table[(0, 12)].energy
    assert table[(2, 12)].energy < table[(1, 12)].energy
    assert table[(1, 12)].energy < table[(1, 8)].energy
    assert result.config.l_max == 2 and result.config.n_max == 12


def test_run_convergence_triplet_bound():
    result = run_convergence(RunConfig(z=2.0, state="1s2s-3S"),
                             [0, 1], [6, 10])
    assert result.rows
    for row in result.rows:
        assert row.s_linear >= 0.5 - 1e-12


def test_run_zscan_rows_and_failures(monkeypatch):
    scan = run_zscan(charges=[1.5, 2.0], states=["1s2s-3S"])
    assert [r.z for r in scan.rows] == [1.5, 2.0]
    assert scan.complete
    inv_z, s_l, s_vn = scan.series("1s2s-3S")
    assert np.all(np.diff(inv_z) > 0)
    assert np.all(s_l >= 0.5)
    # an empty list is an error, not the default grid or states
    with pytest.raises(InvalidParameterError):
        run_zscan(charges=[])
    with pytest.raises(InvalidParameterError):
        run_zscan(charges=[2.0], states=[])
    # a bad charge is recorded, not fatal
    scan = run_zscan(charges=[0.5, 2.0], states=["1s2s-3S"])
    assert not scan.complete
    assert len(scan.rows) == 1 and len(scan.failures) == 1
    # a failed context costs one failure per state; each charge builds one
    # context and solves every state in it
    built = []

    def counting_build(config):
        built.append(config.z)
        return build_context(config)

    monkeypatch.setattr(pipeline, "build_context", counting_build)
    states = ["1s2s-1S", "1s2s-3S"]
    scan = run_zscan(charges=[0.5, 2.0], states=states)
    assert built == [0.5, 2.0]
    assert [(z, s) for z, s, _ in scan.failures] == [(0.5, s) for s in states]
    assert scan.failures[0][2] == scan.failures[1][2]
    assert len(scan.rows) == len(states)
    ctx = build_context(RunConfig(z=2.0, **SCAN_DEFAULTS))
    for row, s in zip(scan.rows, states):
        report = solve_in_context(ctx, s)
        assert row.state == s
        assert (row.energy, row.s_linear, row.s_von_neumann,
                row.dominant_weight, row.r_max, row.selection) == \
            (report.energy, report.s_linear, report.s_von_neumann,
             report.dominant_weight, report.config.r_max, report.selection)


def test_default_scan_charges():
    charges = default_scan_charges()
    assert charges[0] == 1.0 and charges[-1] == 100.0
    assert len(charges) == len(set(charges))
    assert all(b > a for a, b in zip(charges, charges[1:]))


def test_count_interior_extrema():
    assert count_interior_extrema([1, 2, 3, 4]) == 0
    assert count_interior_extrema([1, 3, 2]) == 1
    assert count_interior_extrema([1, 3, 2, 4]) == 2
    # sub-tolerance wiggles on a plateau are ignored
    assert count_interior_extrema([0.0, 1.0, 1.0 + 5e-10, 1.0, 2.0],
                                  tol=1e-9) == 0
