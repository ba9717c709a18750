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
    spin_weighted_entanglement,
    state_spectrum,
    von_neumann_entropy,
)
from helike.errors import InconsistentInputError, InvalidParameterError
from helike.orbitals import build_orbital_set
from helike.slater import SlaterIntegralTable

RNG = np.random.default_rng(2718)


def toy_states(l_max=1, n_max=3, per_spin=3):
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    slater = SlaterIntegralTable(build_orbital_set(basis, 2.0, n_max, l_max))
    out = []
    for S in (0, 1):
        configs = build_config_list(l_max, n_max, S)
        spec = diagonalize(*assemble_hamiltonian([configs], slater))
        for idx in range(min(per_spin, len(configs))):
            state = CIState(
                energy=float(spec.eigenvalues[idx]),
                coefficients=spec.eigenvectors[:, idx],
                S=S, dominant=configs.label(0), dominant_weight=0.0,
            )
            out.append((state, configs))
    return out


STATES = toy_states()


def random_state(configs, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=len(configs))
    vec /= np.linalg.norm(vec)
    return CIState(energy=0.0, coefficients=vec, S=configs.S,
                   dominant=configs.label(0), dominant_weight=0.0)


def with_pair_matrix(state, configs, l, C):
    """state with its l block replaced by the pair-coefficient matrix C.

    The inverse of state_spectrum's fold: T = C[i, i] on the diagonal and
    T = sqrt(2) C[i, j] for i < j.
    """
    rows, i, j = configs.blocks()[l]
    coefficients = state.coefficients.copy()
    coefficients[rows] = np.where(i == j, 1.0, np.sqrt(2.0)) * C[i, j]
    return CIState(energy=state.energy, coefficients=coefficients,
                   S=state.S, dominant=state.dominant,
                   dominant_weight=state.dominant_weight)


def test_rdm_trace_and_psd():
    for state, configs in STATES:
        spec = state_spectrum(state, configs)
        assert_allclose(np.dot(spec.degeneracies, spec.eigenvalues), 1.0,
                        atol=1e-12)
        assert spec.eigenvalues.min() >= 0.0


def test_small_occupations_keep_relative_accuracy():
    # singlet l = 0 state C = Q diag(sigma) Q^T: its occupations are
    # sigma^2 down to 1e-18, below the ~1e-16 absolute error of an
    # eigensolve of C C^T
    configs = build_config_list(0, 4, 0)
    sigma = np.array([0.95, 0.3, 1e-3, 1e-9])
    sigma /= np.linalg.norm(sigma)
    Q, _ = np.linalg.qr(RNG.normal(size=(4, 4)))
    state = with_pair_matrix(random_state(configs, 0), configs, 0,
                             Q @ np.diag(sigma) @ Q.T)
    spec = state_spectrum(state, configs)
    assert_allclose(spec.eigenvalues, sigma ** 2, rtol=1e-6, atol=0.0)


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
    # +0.0: a -0.0 would print as "-0" in CSV and "-0.0" in JSON
    assert not np.signbit(von_neumann_entropy(pure))
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
    # C^0 -> Q C^0 Q^T, leaves the occupation spectrum, hence both
    # entropies, unchanged
    state, configs = STATES[0]
    spec = state_spectrum(state, configs)
    rows, i, j = configs.blocks()[0]
    m = configs.n_max
    C = np.zeros((m, m))
    C[i, j] = C[j, i] = state.coefficients[rows] / np.sqrt(2.0)
    C[i[i == j], i[i == j]] = state.coefficients[rows][i == j]
    Q, _ = np.linalg.qr(RNG.normal(size=(m, m)))
    rotated = state_spectrum(
        with_pair_matrix(state, configs, 0, Q @ C @ Q.T), configs)
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
                  S=0, dominant=configs.label(0), dominant_weight=0.0)
    with pytest.raises(InconsistentInputError):
        state_spectrum(bad, configs)
    triplets = STATES[-1][1]
    flipped = CIState(energy=0.0, coefficients=np.zeros(len(triplets)),
                      S=0, dominant=configs.label(0), dominant_weight=0.0)
    with pytest.raises(InconsistentInputError, match="spins"):
        state_spectrum(flipped, triplets)
    unnormalized = CIState(
        energy=0.0, coefficients=2.0 * state.coefficients,
        S=0, dominant=configs.label(0), dominant_weight=0.0)
    with pytest.raises(InconsistentInputError):
        state_spectrum(unnormalized, configs)
    # no configurations at all (triplets at n_max = 1): a zero trace too
    empty = build_config_list(0, 1, 1)
    nothing = CIState(energy=0.0, coefficients=np.zeros(0), S=1,
                      dominant=None, dominant_weight=0.0)
    with pytest.raises(InconsistentInputError):
        state_spectrum(nothing, empty)
