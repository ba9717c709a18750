"""Configuration lists, CI Hamiltonian assembly, and state selection."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike.bspline import BSplineBasis, make_knots
from helike.ci import (
    Configuration,
    assemble_hamiltonian,
    build_config_list,
    diagonalize,
    select_state,
)
from helike.crosscheck import hamiltonian_msum
from helike.errors import InconsistentInputError, InvalidParameterError
from helike.orbitals import build_orbital_set
from helike.slater import SlaterIntegralTable

@pytest.fixture(scope="module")
def toy():
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    orbitals = build_orbital_set(basis, 2.0, 3, 1)
    return orbitals, SlaterIntegralTable(orbitals)


def test_reference_config_counts():
    assert len(build_config_list(6, 40, 0)) == 4935
    assert len(build_config_list(6, 40, 1)) == 4676


def test_config_ordering_and_pauli():
    singlets = build_config_list(1, 3, 0)
    triplets = build_config_list(1, 3, 1)
    assert singlets.configs[0] == Configuration(1, 1, 0)
    assert all(c.n1 < c.n2 for c in triplets)
    ls = [c.l for c in singlets]
    assert ls == sorted(ls)


def test_unsupported_symmetry():
    with pytest.raises(InvalidParameterError):
        build_config_list(2, 5, 2)
    with pytest.raises(InvalidParameterError):
        build_config_list(5, 3, 0)


def test_hamiltonian_vs_determinant_expansion(toy):
    orbitals, slater = toy
    for S in (0, 1):
        configs = build_config_list(1, 3, S)
        fast = assemble_hamiltonian(configs, orbitals, slater)
        slow = hamiltonian_msum(configs, orbitals, slater)
        assert_allclose(fast, slow, atol=1e-12)


def test_hamiltonian_symmetric_and_variational(toy):
    orbitals, slater = toy
    configs = build_config_list(1, 3, 0)
    H = assemble_hamiltonian(configs, orbitals, slater)
    assert np.array_equal(H, H.T)
    spec = diagonalize(H)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    # ground eigenvalue below the lowest diagonal element
    assert spec.eigenvalues[0] < H.diagonal().min()


def test_memory_budget(toy):
    orbitals, slater = toy
    configs = build_config_list(1, 3, 0)
    with pytest.raises(MemoryError):
        assemble_hamiltonian(configs, orbitals, slater, memory_budget=8)
    # room for H but not for H plus the largest R^k block
    n_orb = orbitals.orbitals(0).n_orbitals
    budget = 8 * len(configs) ** 2 + 8 * n_orb**4 - 1
    with pytest.raises(MemoryError):
        assemble_hamiltonian(configs, orbitals, slater, memory_budget=budget)


def test_mismatched_slater_table(toy):
    orbitals, _ = toy
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    other = SlaterIntegralTable(build_orbital_set(basis, 2.0, 3, 1))
    configs = build_config_list(1, 3, 0)
    with pytest.raises(InconsistentInputError):
        assemble_hamiltonian(configs, orbitals, other)


def test_select_state(toy):
    orbitals, slater = toy
    configs = build_config_list(1, 3, 0)
    spec = diagonalize(assemble_hamiltonian(configs, orbitals, slater))
    ground = select_state(spec, configs, (1, 1))
    assert ground.dominant == Configuration(1, 1, 0)
    assert ground.dominant_weight > 0.9
    assert not ground.ambiguous and ground.selection == "overlap"
    excited = select_state(spec, configs, (1, 2))
    assert excited.energy > ground.energy
    with pytest.raises(InvalidParameterError):
        select_state(spec, configs, (1, 9))


def test_select_state_triplet_rules(toy):
    orbitals, slater = toy
    configs = build_config_list(1, 3, 1)
    spec = diagonalize(assemble_hamiltonian(configs, orbitals, slater))
    with pytest.raises(InvalidParameterError):
        select_state(spec, configs, (1, 1))
    state = select_state(spec, configs, (1, 2))
    assert state.S == 1


def test_select_state_energy_rank_fallback(toy):
    orbitals, slater = toy
    for S, rank in ((0, 1), (1, 0)):
        configs = build_config_list(1, 3, S)
        spec = diagonalize(assemble_hamiltonian(configs, orbitals, slater))
        # spread every eigenvector evenly so no overlap reaches 0.5
        n = len(configs)
        spec.eigenvectors = np.full((n, n), 1.0 / np.sqrt(n))
        state = select_state(spec, configs, (1, 2))
        assert state.ambiguous and state.selection == "energy-order"
        assert state.energy == spec.eigenvalues[rank]
        # the rank rule covers 1sns targets only
        other = select_state(spec, configs, (2, 3))
        assert other.ambiguous and other.selection == "overlap"


def test_helium_energies_small_basis():
    # modest basis: energies land within a few mH of the converged values
    basis = BSplineBasis(make_knots(60.0, 19, 7))
    orbitals = build_orbital_set(basis, 2.0, 15, 2)
    slater = SlaterIntegralTable(orbitals)
    configs = build_config_list(2, 15, 0)
    spec = diagonalize(assemble_hamiltonian(configs, orbitals, slater))
    assert abs(spec.eigenvalues[0] - (-2.9037)) < 5e-3
    configs_t = build_config_list(2, 15, 1)
    spec_t = diagonalize(assemble_hamiltonian(configs_t, orbitals, slater))
    assert abs(spec_t.eigenvalues[0] - (-2.1752)) < 2e-3
