"""One-electron radial orbitals on the spline basis."""
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from helike import orbitals
from helike.bspline import BSplineBasis, make_knots
from helike.errors import FactorizationError, InvalidParameterError
from helike.orbitals import (
    build_orbital_set,
    hydrogenic_energy,
    interior_overlap,
    radial_hamiltonian,
    solve_orbitals,
)
from helike.pipeline import RunConfig

from helpers import principal_numbers

# orbital S-orthonormality, C S C^T = 1, reached by every solve
ORTHO_TOL = 1e-12


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
    vals = orbital_set.values_at(r)[0][0]
    assert_allclose(vals, exact, atol=5e-7)


def test_sign_convention(orbital_set):
    # every orbital rises from zero with positive slope at the origin
    r = np.array([1e-3])
    for l in range(3):
        vals = orbital_set.values_at(r)[l]
        assert np.all(vals >= 0.0)


def test_node_counts(orbital_set):
    r = np.linspace(1e-4, 30.0, 4000)
    for l in range(2):
        vals = orbital_set.values_at(r)[l]
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


@pytest.mark.parametrize("z", [1.0, 2.0, 100.0])
def test_cholesky_reduction_matches_generalized_eigh(z):
    # the pipeline's own basis at this charge; scipy's generalized solver
    # is the oracle for the lowest n_max - l roots.  Eigenvalue rounding is
    # absolute, of order eps cond(S) max|E|, so energies are compared
    # relative to the largest one: roots near E = 0 differ by 4e-9 of
    # themselves even between two of scipy's own drivers (gv and gvx).
    res = RunConfig(z=z, l_max=3, n_max=25).resolve()
    basis = BSplineBasis(make_knots(res.r_max, res.n_splines, res.order,
                                    gamma=res.gamma))
    S = interior_overlap(basis)
    for l in range(4):
        orb = solve_orbitals(basis, z, l, res.n_max)
        want = scipy.linalg.eigh(radial_hamiltonian(basis, z, l), S,
                                 eigvals_only=True,
                                 subset_by_index=(0, orb.n_orbitals - 1))
        assert_allclose(orb.energies, want, rtol=0,
                        atol=1e-12 * np.abs(want).max())
        C = orb.coefficients
        assert_allclose(C @ S @ C.T, np.eye(len(C)), rtol=0, atol=ORTHO_TOL)


def test_indefinite_overlap_is_a_factorization_error(basis, monkeypatch):
    def indefinite(b):
        S = interior_overlap(b).copy()
        S[0, 0] = -1.0
        return S
    monkeypatch.setattr(orbitals, "interior_overlap", indefinite)
    with pytest.raises(FactorizationError):
        solve_orbitals(basis, 2.0, 0, 5)
