"""Built-in cross-check suites behind the `selftest` CLI verb.

Each check recomputes a production quantity through an independent route
(closed-form limits, brute-force summations from crosscheck.py) and reports
the worst deviation.  These are the same comparisons the test suite pins
down; the CLI verb makes them runnable in an installed environment without
pytest.
"""
from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

from .bspline import BSplineBasis, make_knots
from .ci import (CIState, assemble_hamiltonian, build_config_list,
                 coupling_coefficient, diagonalize)
from .crosscheck import (
    coupling_coefficient_msum,
    hamiltonian_msum,
    rdm_m_resolved,
)
from .entanglement import linear_entropy, state_spectrum
from .orbitals import build_orbital_set, hydrogenic_energy
from .slater import SlaterIntegralTable


def _toy_context(Z=2.0, l_max=1, n_max=3):
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    orbitals = build_orbital_set(basis, Z, n_max, l_max)
    slater = SlaterIntegralTable(orbitals)
    return orbitals, slater


def check_hydrogenic_energies() -> float:
    """Bound-state energies vs -Z^2/(2 n^2), n <= 10, l <= 2, Z in {1, 2}."""
    worst = 0.0
    for Z in (1.0, 2.0):
        basis = BSplineBasis(make_knots(360.0 / Z, 70, 7, gamma=5.0))
        orbitals = build_orbital_set(basis, Z, 10, 2)
        for l in range(3):
            for n in range(l + 1, 11):
                err = abs(orbitals.energy(n, l) - hydrogenic_energy(Z, n))
                worst = max(worst, err)
    return worst


# Closed-form hydrogenic Slater integrals in units of Z (Condon & Shortley,
# The Theory of Atomic Spectra, 1935), as (k, a, b, c, d, value) with
# value = R^k(a b, c d) / Z in the argument order of slater.integral.
HYDROGENIC_RK = [
    (0, (1, 0), (1, 0), (1, 0), (1, 0), Fraction(5, 8)),       # F0(1s,1s)
    (0, (1, 0), (2, 0), (1, 0), (2, 0), Fraction(17, 81)),     # F0(1s,2s)
    (0, (1, 0), (2, 0), (2, 0), (1, 0), Fraction(16, 729)),    # G0(1s,2s)
    (0, (1, 0), (2, 1), (1, 0), (2, 1), Fraction(59, 243)),    # F0(1s,2p)
    (1, (1, 0), (2, 1), (2, 1), (1, 0), Fraction(112, 2187)),  # G1(1s,2p)
    (0, (2, 0), (2, 0), (2, 0), (2, 0), Fraction(77, 512)),    # F0(2s,2s)
    (0, (2, 0), (2, 1), (2, 0), (2, 1), Fraction(83, 512)),    # F0(2s,2p)
    (1, (2, 0), (2, 1), (2, 1), (2, 0), Fraction(45, 512)),    # G1(2s,2p)
    (0, (2, 1), (2, 1), (2, 1), (2, 1), Fraction(93, 512)),    # F0(2p,2p)
    (2, (2, 1), (2, 1), (2, 1), (2, 1), Fraction(45, 512)),    # F2(2p,2p)
]


def check_slater_closed_forms() -> float:
    """Relative R^k error against HYDROGENIC_RK for Z in {1, 2, 5}."""
    worst = 0.0
    for Z in (1.0, 2.0, 5.0):
        basis = BSplineBasis(make_knots(60.0 / Z, 35, 7))
        slater = SlaterIntegralTable(build_orbital_set(basis, Z, 2, 1))
        for k, a, b, c, d, exact in HYDROGENIC_RK:
            val = slater.integral(k, a, b, c, d)
            worst = max(worst, abs(val / (Z * float(exact)) - 1.0))
    return worst


def check_coupling_coefficients(l_cut=4, k_cut=8) -> float:
    """Closed-form angular factors vs brute-force magnetic sums (L = 0)."""
    worst = 0.0
    for l in range(l_cut + 1):
        for lp in range(l_cut + 1):
            for k in range(k_cut + 1):
                a = coupling_coefficient(l, lp, k)
                b = coupling_coefficient_msum(l, l, lp, lp, 0, k)
                worst = max(worst, abs(a - b))
    return worst


def check_toy_hamiltonian() -> float:
    """Blockwise CI Hamiltonian vs the Slater-determinant expansion."""
    orbitals, slater = _toy_context()
    worst = 0.0
    for S in (0, 1):
        configs = build_config_list(1, 3, S)
        fast = assemble_hamiltonian(configs, orbitals, slater)
        slow = hamiltonian_msum(configs, orbitals, slater)
        worst = max(worst, float(np.abs(fast - slow).max()))
    return worst


def _toy_states():
    orbitals, slater = _toy_context()
    out = []
    for S in (0, 1):
        configs = build_config_list(1, 3, S)
        spec = diagonalize(assemble_hamiltonian(configs, orbitals, slater))
        for idx in range(min(3, len(configs))):
            vec = spec.eigenvectors[:, idx]
            out.append((CIState(
                energy=float(spec.eigenvalues[idx]), coefficients=vec,
                label=f"toy{idx}", S=S, dominant=configs[0],
                dominant_weight=0.0), configs))
    return out


def check_block_rdm() -> float:
    """Per-l block RDM eigenvalues vs the explicit m-resolved construction."""
    worst = 0.0
    for state, configs in _toy_states():
        spec = state_spectrum(state, configs)
        expanded = np.sort(np.repeat(spec.eigenvalues,
                                     spec.degeneracies.astype(int)))[::-1]
        reference = rdm_m_resolved(state, configs)[: len(expanded)]
        worst = max(worst, float(np.abs(expanded - reference).max()))
    return worst


def check_triplet_structure() -> float:
    """Triplet eigenvalue pairing and the antisymmetric bound S_L >= 1/2."""
    worst = 0.0
    for state, configs in _toy_states():
        if state.S != 1:
            continue
        spec = state_spectrum(state, configs)
        lam = np.sort(spec.eigenvalues[spec.eigenvalues > 1e-12])[::-1]
        pairs = lam[: 2 * (len(lam) // 2)].reshape(-1, 2)
        worst = max(worst, float(np.abs(pairs[:, 0] - pairs[:, 1]).max()))
        worst = max(worst, max(0.0, 0.5 - linear_entropy(spec)))
    return worst


def check_trace_normalization() -> float:
    """Sum of g * lambda over every toy state spectrum vs 1."""
    worst = 0.0
    for state, configs in _toy_states():
        spec = state_spectrum(state, configs)
        total = float(np.dot(spec.degeneracies, spec.eigenvalues))
        worst = max(worst, abs(total - 1.0))
    return worst


CHECKS = [
    ("hydrogenic energies vs -Z^2/2n^2", check_hydrogenic_energies, 1e-8),
    ("R^k vs hydrogenic closed forms", check_slater_closed_forms, 1e-8),
    ("angular factors vs magnetic sums", check_coupling_coefficients, 1e-12),
    ("CI Hamiltonian vs determinant expansion", check_toy_hamiltonian, 1e-12),
    ("block RDM vs m-resolved RDM", check_block_rdm, 1e-12),
    ("triplet pairing and S_L bound", check_triplet_structure, 1e-12),
    ("occupation trace normalization", check_trace_normalization, 1e-10),
]

FAST_SKIP = {"CI Hamiltonian vs determinant expansion"}


def run_all(fast: bool = False, stream=None) -> bool:
    stream = stream or sys.stdout
    all_ok = True
    for name, check, tol in CHECKS:
        if fast and name in FAST_SKIP:
            print(f"SKIP  {name}", file=stream)
            continue
        worst = check()
        ok = worst <= tol
        all_ok &= ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: max deviation {worst:.3e} "
              f"(tolerance {tol:.0e})", file=stream)
    return all_ok
