"""Acceptance suite: one test per published benchmark group.

Each test pins a documented tolerance against reference values (energies,
entropies, configuration counts) or a qualitative curve-shape property of
the critical-charge scans.  Expensive contexts are shared via module-scoped
fixtures; the whole suite runs in a few minutes on a desktop.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike import selftest
from helike.ci import build_config_list
from helike.entanglement import (
    RdmSpectrum,
    linear_entropy,
    spin_weighted_entanglement,
    von_neumann_entropy,
)
from helike.pipeline import (
    RunConfig,
    build_context,
    run_zscan,
    solve_in_context,
)

from helpers import count_interior_extrema


@pytest.fixture(scope="module")
def helium_standard():
    """He with l_max=3, n_max=25, order 7, box 60 a.u."""
    ctx = build_context(RunConfig(z=2.0, l_max=3, n_max=25, r_max=60.0))
    return {
        "ground": solve_in_context(ctx, "ground"),
        "1s2s-1S": solve_in_context(ctx, "1s2s-1S"),
        "1s2s-3S": solve_in_context(ctx, "1s2s-3S"),
    }


@pytest.fixture(scope="module")
def helium_converged():
    """He at the large truncation l_max=5, n_max=40."""
    ctx = build_context(RunConfig(z=2.0, l_max=5, n_max=40, r_max=60.0))
    return {
        "ground": solve_in_context(ctx, "ground"),
        "1s2s-1S": solve_in_context(ctx, "1s2s-1S"),
        "1s2s-3S": solve_in_context(ctx, "1s2s-3S"),
    }


@pytest.fixture(scope="module")
def zscan():
    return run_zscan()


def test_01_helium_energy_levels(helium_standard):
    e0 = helium_standard["ground"].energy
    e1 = helium_standard["1s2s-1S"].energy
    e3 = helium_standard["1s2s-3S"].energy
    assert -2.9040 <= e0 <= -2.9020
    assert -2.1465 <= e1 <= -2.1450
    assert -2.1756 <= e3 <= -2.1748


def test_02_ground_entropies_matched_truncation():
    ctx = build_context(RunConfig(z=2.0, l_max=3, n_max=20, r_max=60.0),
                        ("ground",))
    report = solve_in_context(ctx, "ground")
    assert abs(report.s_linear - 0.0160678) <= 5e-4
    assert abs(report.s_von_neumann - 0.0853071) <= 1e-3


def test_03_converged_entropies(helium_converged):
    g = helium_converged["ground"]
    s1 = helium_converged["1s2s-1S"]
    s3 = helium_converged["1s2s-3S"]
    assert abs(g.s_linear - 0.015937) <= 3e-4
    assert abs(g.s_von_neumann - 0.084998) <= 1e-3
    assert abs(s1.s_linear - 0.488737) <= 3e-4
    assert abs(s1.s_von_neumann - 0.991917) <= 1e-3
    assert abs(s3.s_linear - 0.500376) <= 1e-4
    assert abs(s3.s_von_neumann - 1.005527) <= 1e-3


def test_04_helium_like_ions():
    ctx3 = build_context(RunConfig(z=3.0, l_max=4, n_max=30))
    ground = solve_in_context(ctx3, "ground")
    singlet = solve_in_context(ctx3, "1s2s-1S")
    triplet = solve_in_context(ctx3, "1s2s-3S")
    assert abs(ground.energy - (-7.27974)) <= 2e-3
    assert abs(singlet.s_linear - 0.493031) <= 5e-4
    assert abs(triplet.s_von_neumann - 1.003424) <= 1e-3
    ctx4 = build_context(RunConfig(z=4.0, l_max=4, n_max=30), ("1s2s-1S",))
    be = solve_in_context(ctx4, "1s2s-1S")
    assert abs(be.s_linear - 0.495638) <= 5e-4


def test_05_configuration_counts():
    assert len(build_config_list(6, 40, 0)) == 4935
    assert len(build_config_list(6, 40, 1)) == 4676


def test_06_critical_charge_behavior(zscan):
    assert zscan.complete

    def row(z, state):
        return next(r for r in zscan.rows
                    if abs(r.z - z) < 1e-9 and r.state == state)

    t105 = row(1.05, "1s2s-3S")
    t150 = row(1.5, "1s2s-3S")
    t200 = row(2.0, "1s2s-3S")
    # triplet endpoint limits: S_L -> 0.5 and S_vN -> 1.0 from above
    assert abs(t105.s_linear - 0.5) < abs(t150.s_linear - 0.5)
    assert abs(t150.s_linear - 0.5) < t200.s_linear
    assert t105.s_linear < 0.502
    assert 0.99 < t105.s_von_neumann < 1.01
    # singlet approaches 0.5 from below
    s105 = row(1.05, "1s2s-1S")
    assert 0.47 < s105.s_linear < 0.5
    assert abs(row(1.05, "1s2s-1S").s_linear - 0.5) < \
        abs(row(1.5, "1s2s-1S").s_linear - 0.5)

    # curve shape over 1/Z in [0.01, 0.95]: a single interior minimum for
    # the singlet, a single interior maximum for the triplet
    for state, kind in (("1s2s-1S", "min"), ("1s2s-3S", "max")):
        inv_z, s_l, s_vn = zscan.series(state)
        win = (inv_z >= 0.01) & (inv_z <= 0.95)
        s_l = s_l[win]
        assert count_interior_extrema(s_l) == 1
        if kind == "min":
            assert s_l.min() < min(s_l[0], s_l[-1])
        else:
            assert s_l.max() > max(s_l[0], s_l[-1])
        if state == "1s2s-3S":
            assert count_interior_extrema(s_vn[win]) == 1
            assert s_vn[win].max() > max(s_vn[win][0], s_vn[win][-1])
        else:
            # the singlet von Neumann curve has its interior minimum plus a
            # shallow (~5e-4) physical maximum near 1/Z ~ 0.1 where S_vN
            # exceeds 1; assert the dominant minimum
            v = s_vn[win]
            assert v.min() < min(v[0], v[-1])


def test_07_oracle_suites(capsys):
    failures = []
    for name, check, tol in selftest.CHECKS:
        worst = check()
        print(f"{'PASS' if worst <= tol else 'FAIL'}  {name}: "
              f"{worst:.3e} (tol {tol:.0e})")
        if worst > tol:
            failures.append((name, worst, tol))
    assert not failures


def test_08_entropy_unit_identities():
    half = RdmSpectrum(eigenvalues=np.array([0.5, 0.5]),
                       degeneracies=np.array([1.0, 1.0]),
                       l_labels=np.array([0, 0]))
    pure = RdmSpectrum(eigenvalues=np.array([1.0]),
                       degeneracies=np.array([1.0]),
                       l_labels=np.array([0]))
    assert abs(von_neumann_entropy(half) - 1.0) <= 1e-14
    assert abs(linear_entropy(half) - 0.5) <= 1e-14
    assert von_neumann_entropy(pure) == 0.0
    assert linear_entropy(pure) == 0.0
    # spin-weighted entanglement at the limiting purities
    assert spin_weighted_entanglement(1.0, "sz0") == 0.0
    assert_allclose(spin_weighted_entanglement(1.0, "triplet_polarized"),
                    -1.0)
    assert_allclose(spin_weighted_entanglement(0.5, "sz0"), 0.5)
    assert spin_weighted_entanglement(0.5, "triplet_polarized") == 0.0
