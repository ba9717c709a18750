"""Two-electron configuration interaction for S states (L = 0).

Configurations are orbital pairs (n1 l, n2 l) coupled to L = 0 (which forces
l1 = l2) with spin S = 0 or 1.  The Hamiltonian over the normalized
antisymmetrized configuration state functions is

    H[(ab),(cd)] = delta * (e_a + e_b)
      + f_ab f_cd sum_k c_k(la, lc) [ R^k(ab, cd) + (-1)^S R^k(ab, dc) ]

with f_ab = 1/sqrt(1 + delta_ab) carrying the same-orbital singlet 1/sqrt(2)
normalization, c_k the angular factor from angular.coupling_coefficient, and
the (-1)^S exchange sign fixed against the brute-force magnetic-quantum-
number oracle in crosscheck.py.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .angular import coupling_coefficient, multipole_ranks
from .errors import (
    InconsistentInputError,
    InvalidParameterError,
    UnsupportedSymmetryError,
)
from .orbitals import RadialOrbitalSet
from .slater import SlaterIntegralTable

SPECTROSCOPIC = "spdfghiklmnoq"

AMBIGUOUS_WEIGHT = 0.5


@dataclass(frozen=True)
class Configuration:
    """Orbital pair (n1 l)(n2 l) in canonical order n1 <= n2."""

    n1: int
    n2: int
    l: int

    def label(self) -> str:
        s = SPECTROSCOPIC[self.l]
        return f"{self.n1}{s}{self.n2}{s}"


@dataclass
class ConfigList:
    """Deterministically ordered configurations for one (L, S, l_max, n_max)."""

    l_max: int
    n_max: int
    L: int
    S: int
    configs: list[Configuration] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)

    def __getitem__(self, i) -> Configuration:
        return self.configs[i]

    def index(self, n1: int, n2: int, l: int) -> int:
        return self.configs.index(Configuration(min(n1, n2), max(n1, n2), l))

    def block_slices(self) -> dict[int, slice]:
        """Contiguous index range per l (configs are ordered by l)."""
        out = {}
        start = 0
        for l in range(self.l_max + 1):
            count = sum(1 for c in self.configs if c.l == l)
            out[l] = slice(start, start + count)
            start += count
        return out


def build_config_list(l_max: int, n_max: int, L: int = 0,
                      S: int = 0) -> ConfigList:
    """All Pauli-allowed (n1 l, n2 l) pairs with l <= l_max, n <= n_max.

    Ordered by l, then n1, then n2.  Singlets include same-orbital pairs
    (n1 = n2); triplets require n1 < n2.
    """
    if L != 0:
        raise UnsupportedSymmetryError(
            f"only L = 0 configuration lists are implemented, got L={L}"
        )
    if S not in (0, 1):
        raise InvalidParameterError(f"S must be 0 or 1, got {S}")
    if l_max < 0 or n_max <= l_max:
        raise InvalidParameterError(
            f"need l_max >= 0 and n_max > l_max, got ({l_max}, {n_max})"
        )
    configs = []
    for l in range(l_max + 1):
        lo = l + 1
        for n1 in range(lo, n_max + 1):
            start = n1 if S == 0 else n1 + 1
            for n2 in range(start, n_max + 1):
                configs.append(Configuration(n1, n2, l))
    return ConfigList(l_max=l_max, n_max=n_max, L=L, S=S, configs=configs)


def config_count(l_max: int, n_max: int, S: int) -> int:
    """Closed-form size of build_config_list for L = 0."""
    total = 0
    for l in range(l_max + 1):
        m = n_max - l
        total += m * (m + 1) // 2 if S == 0 else m * (m - 1) // 2
    return total


MEMORY_BUDGET_BYTES = 4 << 30


def assemble_hamiltonian(configs: ConfigList, orbitals: RadialOrbitalSet,
                         slater: SlaterIntegralTable,
                         memory_budget: int = MEMORY_BUDGET_BYTES) -> np.ndarray:
    """Dense symmetric CI Hamiltonian over the configuration list."""
    if orbitals is not slater.orbitals:
        raise InconsistentInputError(
            "slater table was built for a different orbital set"
        )
    n = len(configs)
    # Peak estimate: H, plus the l = 0 working set (the most orbitals and
    # configurations): the R^k block G with its symmetrized copy, and the
    # direct/exchange gathers, their weighted sum and the block they fill.
    n_orb = orbitals.orbitals(0).n_orbitals
    n_cfg = configs.block_slices()[0].stop
    need = 8 * (n * n + 2 * n_orb**4 + 4 * n_cfg**2)
    if need > memory_budget:
        raise MemoryError(
            f"CI assembly needs an estimated {need} bytes: H {8 * n * n}, "
            f"largest R^k block {8 * n_orb**4} held twice, gathers "
            f"{32 * n_cfg**2} (budget {memory_budget}); reduce l_max/n_max"
        )
    S = configs.S
    H = np.zeros((n, n))
    slices = configs.block_slices()
    xsign = -1.0 if S == 1 else 1.0
    for la in range(configs.l_max + 1):
        rows = slices[la]
        cfg_a = configs.configs[rows]
        if not cfg_a:
            continue
        A = np.array([c.n1 - la - 1 for c in cfg_a])
        B = np.array([c.n2 - la - 1 for c in cfg_a])
        f_ab = np.where(A == B, 1.0 / np.sqrt(2.0), 1.0)
        for lc in range(la, configs.l_max + 1):
            cols = slices[lc]
            cfg_c = configs.configs[cols]
            if not cfg_c:
                continue
            C = np.array([c.n1 - lc - 1 for c in cfg_c])
            D = np.array([c.n2 - lc - 1 for c in cfg_c])
            f_cd = np.where(C == D, 1.0 / np.sqrt(2.0), 1.0)
            block = np.zeros((len(cfg_a), len(cfg_c)))
            for k in multipole_ranks(la, la, lc, lc):
                ck = coupling_coefficient(la, la, lc, lc, 0, k)
                if ck == 0.0:
                    continue
                G = slater.rank_block(k, la, lc)
                direct = G[A[:, None], C[None, :], B[:, None], D[None, :]]
                exch = G[A[:, None], D[None, :], B[:, None], C[None, :]]
                block += ck * (direct + xsign * exch)
                del G, direct, exch  # free before the next block is built
            block *= f_ab[:, None] * f_cd[None, :]
            H[rows, cols] = block
            if lc != la:
                H[cols, rows] = block.T
            else:
                H[rows, cols] = 0.5 * (block + block.T)
        # one-body part: diagonal in the CSF basis of orbital eigenstates
        e = orbitals.orbitals(la).energies
        idx = np.arange(rows.start, rows.stop)
        H[idx, idx] += e[A] + e[B]
    return H


@dataclass
class Spectrum:
    """Ascending eigenvalues and column eigenvectors of one CI matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def diagonalize(H: np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition with fixed eigenvector signs."""
    if not np.array_equal(H, H.T):
        raise InconsistentInputError("Hamiltonian must be exactly symmetric")
    eigval, eigvec = scipy.linalg.eigh(H)
    for i in range(eigvec.shape[1]):
        j = int(np.argmax(np.abs(eigvec[:, i])))
        if eigvec[j, i] < 0:
            eigvec[:, i] *= -1.0
    return Spectrum(eigenvalues=eigval, eigenvectors=eigvec)


@dataclass
class CIState:
    """One selected eigenstate of the two-electron Hamiltonian."""

    energy: float
    coefficients: np.ndarray
    label: str
    S: int
    dominant: Configuration
    dominant_weight: float
    ambiguous: bool = False
    selection: str = "overlap"   # or "energy-order" (1sns rank fallback)


_LABEL_RE = re.compile(r"^(\d+)s(\d+)s$")


def parse_state_label(label: str) -> tuple[int, int]:
    """'1s2s' -> (1, 2); '1s2' and '1s1s' both mean the ground pair (1, 1)."""
    text = label.strip().lower()
    if text in ("ground", "1s2", "1s^2"):
        return (1, 1)
    m = _LABEL_RE.match(text)
    if not m:
        raise InvalidParameterError(f"cannot parse state label {label!r}")
    n1, n2 = sorted((int(m.group(1)), int(m.group(2))))
    return (n1, n2)


def select_state(spectrum: Spectrum, configs: ConfigList,
                 target: str) -> CIState:
    """Eigenstate with maximal squared overlap on the target configuration.

    target is an (n1, n2) s-pair label such as '1s2s' or '1s2' (ground).
    When the best weight falls below 0.5 the state is flagged ambiguous:
    near the critical charge the physical state mixes with the discretized
    continuum.  For 1sns targets the energy order is still reliable (the
    Hylleraas-Undheim-MacDonald bound makes the physical state the
    (n - 1 - S)-th eigenvalue), so an ambiguous 1sns pick takes that rank
    instead and records selection = 'energy-order'.
    """
    n1, n2 = parse_state_label(target)
    if configs.S == 1 and n1 == n2:
        raise InvalidParameterError(
            f"{target!r} does not exist as a triplet (Pauli-forbidden)"
        )
    try:
        row = configs.index(n1, n2, 0)
    except ValueError:
        raise InvalidParameterError(
            f"configuration {target!r} outside this basis"
        ) from None
    weights = spectrum.eigenvectors[row, :] ** 2
    best = int(np.argmax(weights))
    ambiguous = float(weights[best]) < AMBIGUOUS_WEIGHT
    selection = "overlap"
    if ambiguous and n1 == 1:
        best, selection = n2 - 1 - configs.S, "energy-order"
    vec = spectrum.eigenvectors[:, best].copy()
    dom = int(np.argmax(vec**2))
    term = "1S" if configs.S == 0 else "3S"
    return CIState(
        energy=float(spectrum.eigenvalues[best]),
        coefficients=vec,
        label=f"{target} {term}",
        S=configs.S,
        dominant=configs[dom],
        dominant_weight=float(vec[dom] ** 2),
        ambiguous=ambiguous,
        selection=selection,
    )
