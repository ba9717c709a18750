"""One-electron radial orbitals on the spline basis."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike.bspline import BSplineBasis, make_knots
from helike.errors import InvalidParameterError
from helike.orbitals import (
    build_orbital_set,
    hydrogenic_energy,
    interior_overlap,
    radial_hamiltonian,
    solve_orbitals,
)

from helpers import principal_numbers


@pytest.fixture(scope="module")
def basis():
    return BSplineBasis(make_knots(160.0, 45, 7, gamma=5.0))


@pytest.fixture(scope="module")
def orbital_set(basis):
    return build_orbital_set(basis, 2.0, 8, 2)


def test_bound_energies_vs_exact(orbital_set):
    for l in range(3):
        for n in range(l + 1, 9):
            assert_allclose(orbital_set.energy(n, l),
                            hydrogenic_energy(2.0, n),
                            atol=1e-9)


def test_orthonormality(basis, orbital_set):
    S = interior_overlap(basis)
    for l in range(3):
        C = orbital_set.orbitals(l).coefficients
        gram = C @ S @ C.T
        assert_allclose(gram, np.eye(len(C)), atol=5e-13)


def test_eigen_residual(basis, orbital_set):
    H = radial_hamiltonian(basis, 2.0, 0)
    S = interior_overlap(basis)
    orb = orbital_set.orbitals(0)
    for e, c in zip(orb.energies[:5], orb.coefficients[:5]):
        res = H @ c - e * (S @ c)
        assert np.abs(res).max() < 1e-9


def test_1s_matches_analytic(orbital_set):
    # chi_1s(r) = 2 Z^{3/2} r exp(-Z r)
    Z = 2.0
    r = np.linspace(0.1, 5.0, 40)
    exact = 2.0 * Z**1.5 * r * np.exp(-Z * r)
    vals = orbital_set.values_at(0, r)[0]
    assert_allclose(vals, exact, atol=5e-7)


def test_sign_convention(orbital_set):
    # every orbital rises from zero with positive slope at the origin
    r = np.array([1e-3])
    for l in range(3):
        vals = orbital_set.values_at(l, r)
        assert np.all(vals >= 0.0)


def test_node_counts(orbital_set):
    r = np.linspace(1e-4, 30.0, 4000)
    for l in range(2):
        vals = orbital_set.values_at(l, r)
        for idx, n in enumerate(principal_numbers(orbital_set.orbitals(l))):
            if n > 4:
                continue
            chi = vals[idx]
            sign_flips = np.count_nonzero(np.diff(np.sign(
                chi[np.abs(chi) > 1e-10])))
            assert sign_flips == n - l - 1


def test_continuum_states_positive(basis):
    orb = solve_orbitals(basis, 2.0, 0, 40)
    assert orb.energies[-1] > 0.0            # box-discretized continuum
    assert np.all(np.diff(orb.energies) > 0)


def test_invalid_parameters(basis):
    with pytest.raises(InvalidParameterError):
        radial_hamiltonian(basis, -1.0, 0)
    with pytest.raises(InvalidParameterError):
        solve_orbitals(basis, 2.0, 3, 2)
    with pytest.raises(InvalidParameterError):
        solve_orbitals(basis, 2.0, 0, 200)   # more orbitals than splines
    with pytest.raises(IndexError):
        build_orbital_set(basis, 2.0, 5, 1).energy(7, 0)
