"""One-particle reduced density matrix spectrum and entanglement entropies.

For an L = 0 CI state the RDM is block-diagonal in (l, m) with identical
blocks for every m, so state_spectrum folds the CI vector, block by block
along ConfigList.blocks(), into one square pair-coefficient matrix C^l per
l (symmetric for singlets, antisymmetric for triplets).  The per-(l, m)
block is rho^l = C^l (C^l)^T / (2l+1), so its occupations are the squared
singular values of C^l over 2l+1 (Lowdin & Shull, Phys. Rev. 101, 1730
(1956)), each with degeneracy 2l+1: non-negative by construction, and a
tiny occupation keeps its relative accuracy.  The explicit m-resolved
construction is kept in crosscheck.py as the test oracle for this fold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci import CIState, ConfigList
from .errors import InconsistentInputError, InvalidParameterError

EIGENVALUE_FLOOR = 1e-14
TRACE_TOL = 1e-10


@dataclass
class RdmSpectrum:
    """Occupation eigenvalues with angular degeneracies.

    Entries (lam, g, l): eigenvalue lam of the per-(l, m) block, degeneracy
    g = 2l+1, block label l.  sum(g * lam) = 1.
    """

    eigenvalues: np.ndarray
    degeneracies: np.ndarray
    l_labels: np.ndarray

    def purity(self) -> float:
        """Tr rho^2 = sum g lam^2."""
        return float(np.dot(self.degeneracies, np.square(self.eigenvalues)))


def state_spectrum(state: CIState, configs: ConfigList) -> RdmSpectrum:
    """Occupation spectrum sigma(C^l)^2 / (2l+1) of a CI state, unit trace.

    C^l[i, j] couples radial indices i = n - l - 1 and j = n' - l - 1.  A
    distinct-orbital amplitude T splits as T/sqrt(2) at (i, j) and
    +-T/sqrt(2) at (j, i) (- for triplets); a same-orbital singlet amplitude
    sits on the diagonal with weight T (the CSF's 1/sqrt(2) undone), so C^l
    is exactly the two-particle state.  l blocks without configurations are
    left out; each block's occupations come in descending order.  The
    weighted trace sum_l ||C^l||_F^2 is 1 for a normalized state (asserted
    to TRACE_TOL before the final renormalization).
    """
    if len(state.coefficients) != len(configs):
        raise InconsistentInputError(
            "state vector length does not match the configuration list"
        )
    if state.S != configs.S:
        raise InconsistentInputError("state and configuration spins differ")
    sign = 1.0 if configs.S == 0 else -1.0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    sigma2, ls = [], []
    for l, (rows, i, j) in configs.blocks().items():
        if not len(i):
            continue
        amp = state.coefficients[rows]
        C = np.zeros((configs.n_max - l, configs.n_max - l))
        C[i, j] = amp * inv_sqrt2
        C[j, i] = sign * amp * inv_sqrt2
        d = i == j   # same-orbital singlets: the diagonal holds T itself
        C[i[d], i[d]] = amp[d]
        sigma2.append(np.linalg.svd(C, compute_uv=False) ** 2)
        ls.append(np.full(len(C), l))
    total = sum(s.sum() for s in sigma2)   # sum_l ||C^l||_F^2
    if abs(total - 1.0) > TRACE_TOL:
        raise InconsistentInputError(
            f"pre-normalization trace {total} deviates from 1 beyond {TRACE_TOL}"
        )
    l_labels = np.concatenate(ls)
    g = 2.0 * l_labels + 1.0
    return RdmSpectrum(eigenvalues=np.concatenate(sigma2) / (g * total),
                       degeneracies=g, l_labels=l_labels)


def von_neumann_entropy(spectrum: RdmSpectrum) -> float:
    """S_vN = -sum g lam log2 lam; eigenvalues below 1e-14 contribute zero."""
    lam = spectrum.eigenvalues
    g = spectrum.degeneracies
    mask = lam > EIGENVALUE_FLOOR
    lm = lam[mask]
    return float(-np.dot(g[mask], lm * np.log2(lm)))


def linear_entropy(spectrum: RdmSpectrum) -> float:
    """S_L = 1 - sum g lam^2."""
    return 1.0 - spectrum.purity()


def spin_weighted_entanglement(purity: float, spin_case: str) -> float:
    """Entanglement xi of the full (spatial x spin) two-fermion state.

    spin_case 'sz0' covers singlets and S_z = 0 triplets (spin purity 1/2):
    xi = 1 - purity.  spin_case 'triplet_polarized' covers S_z = +-1
    triplets (spin purity 1): xi = 1 - 2 * purity.
    """
    if not 0.0 < purity <= 1.0:
        raise InvalidParameterError(f"purity {purity} outside (0, 1]")
    if spin_case == "sz0":
        return 1.0 - purity
    if spin_case == "triplet_polarized":
        return 1.0 - 2.0 * purity
    raise InvalidParameterError(f"unknown spin case {spin_case!r}")
