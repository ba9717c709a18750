"""Reduced density matrices and entanglement entropies."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike.bspline import BSplineBasis, make_knots
from helike.ci import CIState, assemble_hamiltonian, build_config_list, \
    diagonalize
from helike.crosscheck import rdm_m_resolved
from helike.entanglement import (
    RdmSpectrum,
    linear_entropy,
    rdm_spectrum,
    reduced_density_matrix,
    spin_weighted_entanglement,
    state_spectrum,
    von_neumann_entropy,
)
from helike.errors import (
    InconsistentInputError,
    InvalidParameterError,
    NegativeEigenvalueError,
)
from helike.orbitals import build_orbital_set
from helike.slater import SlaterIntegralTable

RNG = np.random.default_rng(2718)


def toy_states(l_max=1, n_max=3, per_spin=3):
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    orbitals = build_orbital_set(basis, 2.0, n_max, l_max)
    slater = SlaterIntegralTable(orbitals)
    out = []
    for S in (0, 1):
        configs = build_config_list(l_max, n_max, S)
        spec = diagonalize(*assemble_hamiltonian([configs], orbitals,
                                                 slater))
        for idx in range(min(per_spin, len(configs))):
            state = CIState(
                energy=float(spec.eigenvalues[idx]),
                coefficients=spec.eigenvectors[:, idx],
                label=f"t{idx}", S=S, dominant=configs[0],
                dominant_weight=0.0,
            )
            out.append((state, configs))
    return out


STATES = toy_states()


def random_state(configs, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=len(configs))
    vec /= np.linalg.norm(vec)
    return CIState(energy=0.0, coefficients=vec, label="r",
                   S=configs.S, dominant=configs[0], dominant_weight=0.0)


def test_rdm_trace_and_psd():
    for state, configs in STATES:
        rho = reduced_density_matrix(state, configs)
        total = sum((2 * l + 1) * np.trace(b) for l, b in rho.items())
        assert_allclose(total, 1.0, atol=1e-12)
        for b in rho.values():
            assert np.linalg.eigvalsh(b).min() > -1e-12


def test_block_rdm_matches_m_resolved():
    for state, configs in STATES:
        spec = state_spectrum(state, configs)
        expanded = np.sort(np.repeat(
            spec.eigenvalues, spec.degeneracies.astype(int)))[::-1]
        reference = rdm_m_resolved(state, configs)[: len(expanded)]
        assert_allclose(expanded, reference, atol=1e-12)


def test_random_states_also_match_oracle():
    # the singlet and the triplet list: the (j, i) sign of the fold is odd
    # in the spin
    for configs in (STATES[0][1], STATES[-1][1]):
        for seed in range(4):
            state = random_state(configs, seed)
            spec = state_spectrum(state, configs)
            expanded = np.sort(np.repeat(
                spec.eigenvalues, spec.degeneracies.astype(int)))[::-1]
            reference = rdm_m_resolved(state, configs)[: len(expanded)]
            assert_allclose(expanded, reference, atol=1e-12)


def test_triplet_pairing_and_bound():
    for state, configs in STATES:
        if state.S != 1:
            continue
        spec = state_spectrum(state, configs)
        lam = np.sort(spec.eigenvalues[spec.eigenvalues > 1e-12])[::-1]
        pairs = lam[: 2 * (len(lam) // 2)].reshape(-1, 2)
        assert_allclose(pairs[:, 0], pairs[:, 1], atol=1e-12)
        assert linear_entropy(spec) >= 0.5 - 1e-12


def test_entropy_unit_identities():
    half = RdmSpectrum(eigenvalues=np.array([0.5, 0.5]),
                       degeneracies=np.array([1.0, 1.0]),
                       l_labels=np.array([0, 0]))
    pure = RdmSpectrum(eigenvalues=np.array([1.0]),
                       degeneracies=np.array([1.0]),
                       l_labels=np.array([0]))
    assert abs(von_neumann_entropy(half) - 1.0) < 1e-14
    assert abs(linear_entropy(half) - 0.5) < 1e-14
    assert von_neumann_entropy(pure) == 0.0
    assert linear_entropy(pure) == 0.0


def test_entropy_permutation_invariance():
    lam = np.array([0.6, 0.25, 0.1, 0.05])
    g = np.ones(4)
    spec = RdmSpectrum(eigenvalues=lam, degeneracies=g,
                       l_labels=np.zeros(4, dtype=int))
    perm = RNG.permutation(4)
    spec_p = RdmSpectrum(eigenvalues=lam[perm], degeneracies=g[perm],
                         l_labels=np.zeros(4, dtype=int))
    assert_allclose(von_neumann_entropy(spec), von_neumann_entropy(spec_p),
                    atol=1e-14)
    assert_allclose(linear_entropy(spec), linear_entropy(spec_p), atol=1e-14)


def test_rotation_invariance():
    # an orthogonal rotation of the radial basis inside one l block,
    # rho^0 -> Q rho^0 Q^T, leaves the occupation spectrum, hence both
    # entropies, unchanged
    state, configs = STATES[0]
    rho = reduced_density_matrix(state, configs)
    spec = rdm_spectrum(rho)
    m = rho[0].shape[0]
    Q, _ = np.linalg.qr(RNG.normal(size=(m, m)))
    rho[0] = Q @ rho[0] @ Q.T
    rotated = rdm_spectrum(rho)
    assert_allclose(von_neumann_entropy(spec), von_neumann_entropy(rotated),
                    atol=1e-12)
    assert_allclose(linear_entropy(spec), linear_entropy(rotated),
                    atol=1e-12)


def test_spin_weighted_entanglement_identities():
    assert spin_weighted_entanglement(1.0, "sz0") == 0.0
    assert spin_weighted_entanglement(0.5, "triplet_polarized") == 0.0
    assert_allclose(spin_weighted_entanglement(0.5, "sz0"), 0.5)
    with pytest.raises(InvalidParameterError):
        spin_weighted_entanglement(0.0, "sz0")
    with pytest.raises(InvalidParameterError):
        spin_weighted_entanglement(0.5, "sz2")


def test_error_paths():
    state, configs = STATES[0]
    bad = CIState(energy=0.0, coefficients=state.coefficients[:-1],
                  label="bad", S=0, dominant=configs[0], dominant_weight=0.0)
    with pytest.raises(InconsistentInputError):
        reduced_density_matrix(bad, configs)
    triplets = STATES[-1][1]
    flipped = CIState(energy=0.0, coefficients=np.zeros(len(triplets)),
                      label="s", S=0, dominant=configs[0], dominant_weight=0.0)
    with pytest.raises(InconsistentInputError, match="spins"):
        reduced_density_matrix(flipped, triplets)
    unnormalized = CIState(
        energy=0.0, coefficients=2.0 * state.coefficients, label="u",
        S=0, dominant=configs[0], dominant_weight=0.0)
    with pytest.raises(InconsistentInputError):
        reduced_density_matrix(unnormalized, configs)
    with pytest.raises(NegativeEigenvalueError):
        rdm_spectrum({0: np.array([[1.5, 0.0], [0.0, -0.5]])})
