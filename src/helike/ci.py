"""Two-electron configuration interaction for S states (L = 0).

Configurations are orbital pairs (n1 l, n2 l) coupled to L = 0 (which forces
l1 = l2) with spin S = 0 or 1; L = 0 is the only symmetry this module knows.
A ConfigList holds its rows as three int arrays l, n1 and n2, ordered by
l, then n1, then n2, and blocks() slices them into each l's rows and
radial indices.
The Hamiltonian over the normalized antisymmetrized configuration state
functions is

    H[(ab),(cd)] = delta * (e_a + e_b)
      + f_ab f_cd sum_k c_k(la, lc) [ R^k(ab, cd) + (-1)^S R^k(ab, dc) ]

with f_ab = 1/sqrt(1 + delta_ab) carrying the same-orbital singlet 1/sqrt(2)
normalization and c_k the L = 0 closed form of coupling_coefficient.  The
sum over k is linear in R^k, so it is folded into the radial integrals:
per (la, lc) one rank sum W of inner integrals and one set of outer pair
densities U (SlaterIntegralTable.folded_block).  Their product is taken
band by band of H's rows, never as a whole block: both R^k terms of a
row (ab) with a <= b read only the products of a's outer pairs with the
inner pairs of b >= a.  Only the (-1)^S sign and the configuration list
depend on the spin, so assemble_hamiltonian builds the singlet and the
triplet H together: each band is computed once and feeds both spins.
The angular factor, the fold and the (-1)^S exchange sign are fixed
against the brute-force magnetic-quantum-number oracle in crosscheck.py,
which shares no angular code with this module and sums the ranks one at
a time.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InconsistentInputError, InvalidParameterError
from .orbitals import RadialOrbitalSet
from .slater import SlaterIntegralTable

SPECTROSCOPIC = "spdfghiklmnoq"

AMBIGUOUS_WEIGHT = 0.5
# weight gap a partial-spectrum pick must clear on top of twice its Ritz
# error: far above the ~1e-15 rounding of a computed weight
PROOF_MARGIN = 1e-8


@dataclass(frozen=True, eq=False)
class ConfigList:
    """Deterministically ordered configurations for one (S, l_max, n_max).

    Row r is the orbital pair (n1[r] l[r])(n2[r] l[r]) with n1 <= n2; the
    three int arrays are ordered by l, then n1, then n2.  blocks() is the
    one map from rows to radial indices; the CI assembly and the reduced
    density matrix both read it.
    """

    l_max: int
    n_max: int
    S: int
    l: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    def __len__(self) -> int:
        return len(self.l)

    def label(self, row: int) -> str:
        s = SPECTROSCOPIC[self.l[row]]
        return f"{self.n1[row]}{s}{self.n2[row]}{s}"

    def index(self, n1: int, n2: int, l: int) -> int:
        """Row of the pair (n1 l)(n2 l), in either order."""
        hit = np.flatnonzero((self.l == l) & (self.n1 == min(n1, n2))
                             & (self.n2 == max(n1, n2)))
        if not len(hit):
            s = SPECTROSCOPIC[l]
            raise InvalidParameterError(
                f"configuration '{n1}{s}{n2}{s}' outside this basis")
        return int(hit[0])

    def take(self, rows, l_max: int, n_max: int) -> "ConfigList":
        """The list of the given rows, ascending, as an (l_max, n_max) list."""
        return ConfigList(l_max, n_max, self.S,
                          self.l[rows], self.n1[rows], self.n2[rows])

    def blocks(self) -> dict[int, tuple[slice, np.ndarray, np.ndarray]]:
        """{l: (rows, i, j)} for every l <= l_max, empty blocks included.

        rows is the contiguous slice of l's configurations (ordered by l);
        i = n1 - l - 1 and j = n2 - l - 1 are int arrays.
        """
        bounds = np.searchsorted(self.l, np.arange(self.l_max + 2))
        rows = [slice(int(a), int(b)) for a, b in zip(bounds, bounds[1:])]
        return {l: (r, self.n1[r] - l - 1, self.n2[r] - l - 1)
                for l, r in enumerate(rows)}


def build_config_list(l_max: int, n_max: int, S: int) -> ConfigList:
    """All Pauli-allowed (n1 l, n2 l) pairs with l <= l_max, n <= n_max.

    Ordered by l, then n1, then n2.  Singlets include same-orbital pairs
    (n1 = n2); triplets require n1 < n2.  Each l block is the upper
    triangle of the (n_max - l) x (n_max - l) radial pairs, row by row,
    diagonal included for singlets only.
    """
    if S not in (0, 1):
        raise InvalidParameterError(f"S must be 0 or 1, got {S}")
    if l_max < 0 or n_max <= l_max:
        raise InvalidParameterError(
            f"need l_max >= 0 and n_max > l_max, got ({l_max}, {n_max})"
        )
    pairs = [np.triu_indices(n_max - l, S) for l in range(l_max + 1)]
    l = np.repeat(np.arange(l_max + 1), [len(i) for i, _ in pairs])
    return ConfigList(l_max, n_max, S, l,
                      np.concatenate([i for i, _ in pairs]) + l + 1,
                      np.concatenate([j for _, j in pairs]) + l + 1)


@lru_cache(maxsize=None)
def coupling_coefficient(l: int, lp: int, k: int) -> float:
    """Angular factor c_k multiplying R^k between (l l) and (l' l') at L = 0.

    With L = 0 the 6-j symbol of the general recoupling formula has a zero
    argument, {l l 0; l' l' k} = (-1)^(l + l' + k) / sqrt((2l+1)(2l'+1))
    (Edmonds, Angular Momentum in Quantum Mechanics, eq. 6.3.2), so

        c_k = (-1)^k sqrt((2l+1)(2l'+1)) (l k l'; 0 0 0)^2.

    The squared 3-j symbol q is an exact Fraction from the m = 0 Racah
    closed form (J = l + k + l' even, g = J/2); q^2 (2l+1)(2l'+1) is rounded
    to a float once before the square root, so c_0(l, l) is exactly 1 and
    every factor is within one ulp of its exact value.  Zero unless J is
    even and |l - l'| <= k <= l + l'.
    """
    J = l + k + lp
    if J % 2 or not abs(l - lp) <= k <= l + lp:
        return 0.0
    g = J // 2
    f = math.factorial
    q = (Fraction(f(J - 2 * l) * f(J - 2 * k) * f(J - 2 * lp), f(J + 1))
         * Fraction(f(g), f(g - l) * f(g - k) * f(g - lp)) ** 2)
    return (-1) ** k * math.sqrt(q * q * (2 * l + 1) * (2 * lp + 1))


def multipole_ranks(l: int, lp: int) -> range:
    """Ranks k with nonzero c_k(l, l'): triangle and parity selection."""
    return range(abs(l - lp), l + lp + 1, 2)


MEMORY_BUDGET_BYTES = 4 << 30
# rows per block of a pass over a matrix: a band of the CI assembly's pair
# products, a tile of the symmetry check, a chunk of the convergence
# table's compaction
ROW_BLOCK = 256


def assemble_hamiltonian(config_lists: Sequence[ConfigList],
                         slater: SlaterIntegralTable) -> list[np.ndarray]:
    """Dense symmetric CI Hamiltonians, one per configuration list.

    The lists (typically the singlet and the triplet one) must share l_max
    and n_max.  The one-body energies come from slater.orbitals, the set
    the table was built on.  Per (la, lc) the table's factors U and W are
    multiplied in bands of the first orbital a: a band's rows (a, c) take
    M = (U W^T + W U^T) / 2 over the columns (b, d) with b at or past the
    band, both quadrature orientations averaged.  Each list gathers its
    rows (ab), a in the band, from M: the direct term M[(a, c), (b, d)]
    and the exchange term M[(a, d), (b, c)] with its (-1)^S sign, each one
    take by flat offset.  Every band feeds every list, so each H is
    bit-identical to its one-list assembly.  An la != lc block is mirrored
    into H; an la == lc block is averaged with its transpose, so H is
    exactly symmetric.
    """
    if len({(c.l_max, c.n_max) for c in config_lists}) != 1:
        raise InconsistentInputError(
            "need one or more configuration lists sharing l_max and n_max"
        )
    l_max = config_lists[0].l_max
    blocks = [c.blocks() for c in config_lists]
    # Peak estimate: every H, plus the largest of three phases at l = 0,
    # which has the most orbitals and configurations: folded_block's (the
    # table, the rank sum and one rank_block call); the table, U and W
    # beside one band's two products (at most `band` rows of M) and one
    # list's direct gather, its exchange gather and their offsets (at
    # most `band` rows of H); the table beside the copied transpose of a
    # diagonal block.
    h_bytes = 8 * sum(len(c) ** 2 for c in config_lists)
    rk_bytes = slater.peak_bytes()
    n0 = slater.orbitals.orbitals(0).n_orbitals
    n_cfg = max(b[0][0].stop for b in blocks)
    band = max(ROW_BLOCK // 2, n0)
    band_bytes = slater.nbytes + 8 * (2 * n0**2 * len(slater.r)
                                      + 2 * band * n0**2 + 3 * band * n_cfg)
    need = h_bytes + max(rk_bytes, band_bytes,
                         slater.nbytes + 8 * n_cfg**2)
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryError(
            f"CI assembly needs an estimated {need} bytes: H {h_bytes}, "
            f"R^k working set {rk_bytes}, table, pair factors, band and "
            f"gathers {band_bytes} (budget {MEMORY_BUDGET_BYTES}); reduce "
            "l_max/n_max"
        )
    f_pair = 1.0 / np.sqrt(2.0)   # same-orbital singlet normalization
    Hs = [np.zeros((len(c), len(c))) for c in config_lists]
    for la in range(l_max + 1):
        for lc in range(la, l_max + 1):
            # per list with configurations in both l blocks: its H, the two
            # blocks' (rows, i, j) and its exchange sign
            parts = [(H, b[la], b[lc], -1.0 if c.S == 1 else 1.0)
                     for H, b, c in zip(Hs, blocks, config_lists)
                     if len(b[la][1]) and len(b[lc][1])]
            if not parts:
                continue
            U, W = slater.folded_block(
                [(k, coupling_coefficient(la, lc, k))
                 for k in multipole_ranks(la, lc)], la, lc)
            na = slater.orbitals.orbitals(la).n_orbitals
            nc = len(U) // na
            # values of a per band: M and the product added to it hold
            # ROW_BLOCK rows of (a, c) together
            step = max(1, ROW_BLOCK // (2 * nc))
            for a0 in range(0, na, step):
                # M[(a, c), (b, d)] for a0 <= a < a0 + step and b >= a0
                M = U[a0 * nc:(a0 + step) * nc] @ W[a0 * nc:].T
                M += W[a0 * nc:(a0 + step) * nc] @ U[a0 * nc:].T
                M *= 0.5
                width = M.shape[1]
                for H, (rows, A, B), (cols, C, D), xsign in parts:
                    lo, hi = np.searchsorted(A, (a0, a0 + step))
                    if lo == hi:
                        continue
                    # flat offset of M[(a, c), (b, d)] is
                    # ((a - a0) nc + c) width + (b - a0) nc + d
                    a, b = A[lo:hi] - a0, B[lo:hi] - a0
                    ab = ((a * width + b) * nc)[:, None]
                    block = M.take(ab + (C * width + D))
                    block += xsign * M.take(ab + (D * width + C))
                    block *= (np.where(a == b, f_pair, 1.0)[:, None]
                              * np.where(C == D, f_pair, 1.0))
                    band_rows = slice(rows.start + lo, rows.start + hi)
                    H[band_rows, cols] = block
                    if lc != la:
                        H[cols, band_rows] = block.T
                    del block  # no gather outlives its list
            del U, W, M  # free before the next block's factors are built
            if lc == la:
                for H, (rows, _, _), _, _ in parts:
                    Hl = H[rows, rows]
                    Hl += Hl.T   # numpy reads a copy of the overlapping Hl.T
                    Hl *= 0.5
    for H, c in zip(Hs, config_lists):
        H[np.diag_indices_from(H)] += one_body_diagonal(c, slater.orbitals)
    return Hs


def one_body_diagonal(configs: ConfigList,
                      orbitals: RadialOrbitalSet) -> np.ndarray:
    """e_a + e_b for each row (ab) of configs, from orbitals' energies.

    This is H's one-body part, diagonal in the CSF basis of orbital
    eigenstates; assemble_hamiltonian adds it to the two-body part.
    """
    d = np.empty(len(configs))
    for l, (rows, A, B) in configs.blocks().items():
        e = orbitals.orbitals(l).energies
        d[rows] = e[A] + e[B]
    return d


def rescale_hamiltonian(H: np.ndarray, D: np.ndarray, s: float) -> None:
    """Take H and its one-body diagonal D from charge Z0 to s Z0, in place.

    Valid when both charges share one basis in the scaled radius rho = Z r:
    the orbital coefficients are then the same, every orbital energy scales
    as Z^2 and every R^k as Z (Hylleraas's 1/Z expansion, Z. Phys. 65, 209
    (1930)), so with V the two-body part H(s Z0) = s V + s^2 D.  That is
    s H(Z0) + (s^2 - s) D, which needs no V: the off-diagonal entries are
    scaled, the diagonal gains (s^2 - s) D, and H stays exactly symmetric.
    """
    H *= s
    H[np.diag_indices_from(H)] += (s * s - s) * D
    D *= s * s


@dataclass
class Spectrum:
    """Roots 0..top of one CI matrix, ascending, with column eigenvectors.

    A full decomposition holds every root; complete tells the two apart.
    ritz_error is 0.0 for an eigh decomposition, whose columns are exact
    eigenvectors to rounding.  A Davidson spectrum sets it to a bound
    on how far one column's weight on a configuration may lie from its
    exact eigenvector's value.
    Such a spectrum does not prove that no root below its last was skipped.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]
    ritz_error: float = 0.0

    @property
    def complete(self) -> bool:
        return self.eigenvectors.shape[1] == self.eigenvectors.shape[0]


DAVIDSON_MAX_ITER = 50
# davidson's smallest start subspace.  On the He l3,n25 Z = 1 singlet the
# roots 0..1 took 14 steps (31 ms) from 16 start vectors; from top + 5 = 6
# they had not converged after DAVIDSON_MAX_ITER steps (326 ms with eigh)
START_BLOCK = 16
# a root has converged when ||H x - theta x|| <= RESIDUAL_TOL * max(1,
# |theta_0|): energies and gaps scale as Z^2, and so does this tolerance
RESIDUAL_TOL = 1e-10
# a correction that keeps less than this share of its norm after projection
# against the subspace adds no new direction
NEW_DIRECTION = 1e-8


def _is_symmetric(H: np.ndarray) -> bool:
    # tile pair by tile pair: at dim 4340 H == H.T at once, which walks H.T
    # across rows, took 0.15 s on a 2-vCPU Xeon and the tiles 0.04 s
    t = ROW_BLOCK
    return H.ndim == 2 and H.shape[0] == H.shape[1] and all(
        np.array_equal(H[i:i + t, j:j + t], H[j:j + t, i:i + t].T)
        for i in range(0, len(H), t) for j in range(i, len(H), t))


def diagonalize(H: np.ndarray, top: int | None = None) -> Spectrum:
    """Roots 0..top of H (every root with top=None), after a symmetry check.

    When top leaves roots out, the roots 0..top come from davidson(H, top);
    otherwise the result is the complete numpy.linalg.eigh decomposition.
    An eigenvector's sign is whatever the solver left; no output reads it.
    """
    if not _is_symmetric(H):   # a NaN fails it too: NaN != NaN
        bad = H.size - np.count_nonzero(np.isfinite(H))
        raise InconsistentInputError(
            f"Hamiltonian has {bad} non-finite entries" if bad
            else "Hamiltonian must be exactly symmetric")
    if top is not None and top < len(H) - 1:
        return davidson(H, top)
    return Spectrum(*np.linalg.eigh(H))


def davidson(H: np.ndarray, top: int) -> Spectrum:
    """Roots 0..top of symmetric H by block Davidson, with numpy alone.

    E. R. Davidson, J. Comput. Phys. 17, 87 (1975).  The subspace starts on
    the unit vectors of the b = max(top + 5, START_BLOCK) smallest diagonal
    entries, so its first step needs no product with H; only roots 0..top
    must converge.  Each step adds, per unconverged root, the correction
    (theta - diag H)^-1 r, orthonormalized twice against the subspace.
    A step adds at most top + 1 columns, so V and H V are allocated once,
    with min(n, b + DAVIDSON_MAX_ITER (top + 1)) columns.
    A root has converged when ||r|| <= RESIDUAL_TOL * max(1, |theta_0|).
    Products with H are taken in row order, H V as (V^T H)^T, and the start
    block's H columns are read as rows; both equal H V only because H is
    exactly symmetric, which diagonalize checks before it calls davidson.
    H may be a leading view of a larger matrix; the products read it in
    place.

    The spectrum's ritz_error is 2 sqrt(2) max ||r_i|| / g, with g the
    smallest gap between consecutive Ritz values 0..top + 1, value top + 1
    standing in for the first root above the computed ones.  By
    Davis-Kahan each Ritz vector is within angle ||r_i|| / g of its
    eigenvector, which moves its squared component on any row by at most
    2 sqrt(2) ||r_i|| / g.  So the weight select_state compares is within
    ritz_error of its exact value.  When
    DAVIDSON_MAX_ITER steps do not converge, or a step finds no new
    direction, the same call returns the complete eigh instead.
    """
    n = len(H)
    roots = top + 1
    block = min(max(roots + 4, START_BLOCK), n)
    # a full subspace finds no new direction and ends the loop
    width = min(n, block + DAVIDSON_MAX_ITER * roots)
    diag = H.diagonal()
    start = np.argsort(diag, kind="stable")[:block]
    V = np.zeros((n, width), order="F")
    V[start, np.arange(block)] = 1.0
    HV = np.empty((n, width), order="F")
    HV[:, :block] = H[start].T
    m = block
    for _ in range(DAVIDSON_MAX_ITER):
        theta, s = np.linalg.eigh(V[:, :m].T @ HV[:, :m])
        X = V[:, :m] @ s[:, :roots]
        R = HV[:, :m] @ s[:, :roots] - X * theta[:roots]
        rnorm = np.linalg.norm(R, axis=0)
        todo = rnorm > RESIDUAL_TOL * max(1.0, abs(theta[0]))
        if not todo.any():
            gap = float(np.diff(theta[:roots + 1]).min(initial=np.inf))
            bound = 2.0 * math.sqrt(2.0) * rnorm.max()
            return Spectrum(eigenvalues=theta[:roots],
                            eigenvectors=X,
                            ritz_error=bound / gap if gap > 0 else math.inf)
        denom = theta[:roots][todo] - diag[:, None]
        denom[np.abs(denom) < 1e-12] = 1e-12  # theta on a diagonal entry
        T = R[:, todo] / denom
        grown = m
        for t in T.T:
            norm = np.linalg.norm(t)
            for _ in range(2):
                t -= V[:, :grown] @ (V[:, :grown].T @ t)
            kept = np.linalg.norm(t)
            if kept > NEW_DIRECTION * norm:
                V[:, grown] = t / kept
                grown += 1
        if grown == m:
            break
        np.matmul(V[:, m:grown].T, H, out=HV[:, m:grown].T)
        m = grown
    return Spectrum(*np.linalg.eigh(H))


@dataclass
class CIState:
    """One selected eigenstate of the two-electron Hamiltonian."""

    energy: float
    coefficients: np.ndarray
    S: int
    dominant: str   # label of the largest-weight configuration
    dominant_weight: float
    ambiguous: bool = False
    selection: str = "overlap"   # or "energy-order" (1sns rank fallback)


def select_state(spectrum: Spectrum, configs: ConfigList,
                 pair: tuple[int, int]) -> CIState | None:
    """Eigenstate with maximal squared overlap on the (n1 s, n2 s) pair.

    pair is an ordered s-pair (n1 <= n2) such as (1, 2), or (1, 1) for the
    ground configuration; a pair outside the configuration list (including
    a same-orbital pair in a triplet list) is rejected.  When the best
    weight falls below 0.5 the state is flagged ambiguous: near the
    critical charge the physical state mixes with the discretized
    continuum.  For 1sns targets the energy order is still reliable (the
    Hylleraas-Undheim-MacDonald bound makes the physical state the
    (n - 1 - S)-th eigenvalue), so an ambiguous 1sns pick takes that rank
    instead and records selection = 'energy-order'.

    On a partial spectrum (roots 0..top) the pick is returned only when its
    target weight exceeds AMBIGUOUS_WEIGHT + PROOF_MARGIN + 2 ritz_error,
    and None ("undecided") otherwise.  Rows of the full eigenvector matrix
    have unit norm, so such a weight beats that of every other root,
    computed or not; the margin keeps rounding and the error of Ritz
    vectors from flipping it.  Energy-order picks are ambiguous, so they
    always need the full spectrum.
    """
    n1, n2 = pair
    weights = spectrum.eigenvectors[configs.index(n1, n2, 0), :] ** 2
    best = int(np.argmax(weights))
    weight = float(weights[best])
    margin = PROOF_MARGIN + 2.0 * spectrum.ritz_error
    if not spectrum.complete and weight <= AMBIGUOUS_WEIGHT + margin:
        return None
    ambiguous = weight < AMBIGUOUS_WEIGHT
    selection = "overlap"
    if ambiguous and n1 == 1:
        best, selection = n2 - 1 - configs.S, "energy-order"
    vec = spectrum.eigenvectors[:, best].copy()
    dom = int(np.argmax(vec**2))
    return CIState(
        energy=float(spectrum.eigenvalues[best]),
        coefficients=vec,
        S=configs.S,
        dominant=configs.label(dom),
        dominant_weight=float(vec[dom] ** 2),
        ambiguous=ambiguous,
        selection=selection,
    )
