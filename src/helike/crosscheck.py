"""Brute-force cross-checks for the coupled-matrix-element machinery.

Everything here recomputes a production quantity by a slower, more explicit
route: magnetic-quantum-number summations over Clebsch-Gordan expansions
instead of closed-form recoupling, the explicit (n, l, m)-resolved reduced
density matrix instead of the per-l block construction, and scalar radial
Slater integrals, one rank at a time, instead of rank sums.  The
production code never calls into this module; the `selftest` CLI verb and
the test suite do.

`slater_integral` takes the inner integral of one R^k from the same
routine as production (`SlaterIntegralTable.rank_block`), one rank at a
time and for any four l's, and averages both quadrature orientations.  So
`hamiltonian_msum`, which takes its radial integrals from it, checks the
angular and CSF algebra and the production sum over ranks; R^k itself is
checked against the hydrogenic closed forms in `selftest.HYDROGENIC_RK`.
"""
from __future__ import annotations

import math

import numpy as np

from .angular import (
    clebsch_gordan,
    csf_expand,
    reduced_ck,
    wigner_3j,
)
from .ci import CIState, ConfigList
from .slater import SlaterIntegralTable


def _ck_element(l, m, k, q, lp, mp) -> float:
    """<l m | C^k_q | l' m'> via Wigner-Eckart."""
    if m != q + mp:
        return 0.0
    return ((-1.0) ** (l - m)
            * wigner_3j(l, k, lp, -m, q, mp)
            * reduced_ck(l, k, lp))


def multipole_element(l1, m1, l2, m2, l3, m3, l4, m4, k) -> float:
    """<l1 m1; l2 m2 | C^k(1).C^k(2) | l3 m3; l4 m4> (product states)."""
    acc = 0.0
    for q in range(-k, k + 1):
        acc += ((-1.0) ** q
                * _ck_element(l1, m1, k, q, l3, m3)
                * _ck_element(l2, m2, k, -q, l4, m4))
    return acc


def coupling_coefficient_msum(l1, l2, l3, l4, L, k, M=0) -> float:
    """Angular factor c_k by direct summation over magnetic quantum numbers.

    Expands both coupled states |(l l')L M> over Clebsch-Gordan sums and
    contracts the rank-k multipole operator; independent of M.
    """
    acc = 0.0
    for m1 in range(-l1, l1 + 1):
        m2 = M - m1
        if abs(m2) > l2:
            continue
        cg_bra = clebsch_gordan(l1, m1, l2, m2, L, M)
        if cg_bra == 0.0:
            continue
        for m3 in range(-l3, l3 + 1):
            m4 = M - m3
            if abs(m4) > l4:
                continue
            cg_ket = clebsch_gordan(l3, m3, l4, m4, L, M)
            if cg_ket == 0.0:
                continue
            acc += cg_bra * cg_ket * multipole_element(
                l1, m1, l2, m2, l3, m3, l4, m4, k
            )
    return acc


def slater_integral(slater: SlaterIntegralTable, k: int, a, b, c, d,
                    blocks: dict | None = None) -> float:
    """Scalar R^k(a b, c d) with orbital labels (n, l).

    Canonicalized on the exact symmetries R^k(ab,cd) = R^k(ba,dc)
    = R^k(cd,ab) so that all four give the same float.  The two
    quadrature orientations (which electron sits on the outer grid) are
    averaged, as the CI assembly's band products average them.  The inner
    integral is rank_block's, which takes the outer point's own cell
    through that cell's local B-splines; the outer integral reads the
    table's main-grid samples.  blocks, when given, keeps each
    rank_block(k, lb, ld) result for later calls.
    """
    key = min((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))
    (ia, la), (ib, lb), (ic, lc), (id_, ld) = (
        (n - l - 1, l) for n, l in key)

    def inner(lb, ld):
        if blocks is None:
            return slater.rank_block(k, lb, ld)
        if (k, lb, ld) not in blocks:
            blocks[k, lb, ld] = slater.rank_block(k, lb, ld)
        return blocks[k, lb, ld]

    def oriented(ia, la, ic, lc, ib, lb, id_, ld):
        # pair (a, c) on the outer quadrature, (b, d) in the inner integral
        outer = (slater._samples[la][ia] * slater.w
                 * slater._samples[lc][ic])
        return outer @ inner(lb, ld)[ib, id_]

    return float(0.5 * (oriented(ia, la, ic, lc, ib, lb, id_, ld)
                        + oriented(ib, lb, id_, ld, ia, la, ic, lc)))


def _det_product_terms(det):
    """Expand a normalized 2x2 determinant into signed product terms.

    det = (p, q) of spin-orbitals (n, l, m, ms); returns
    [(p, q, +1/sqrt(2)), (q, p, -1/sqrt(2))].
    """
    p, q = det
    s = 1.0 / math.sqrt(2.0)
    return [(p, q, s), (q, p, -s)]


def _product_h_element(bra, ket, slater: SlaterIntegralTable,
                       blocks: dict) -> float:
    """<u_a(1) u_b(2)| H |u_c(1) u_d(2)> for spin-orbital products."""
    (a, b), (c, d) = bra, ket
    val = 0.0
    # one-body: orbitals are eigenstates of h, diagonal in all labels
    if a == c and b == d:
        orbitals = slater.orbitals
        val += (orbitals.energy(a[0], a[1]) + orbitals.energy(b[0], b[1]))
    # two-body: spin-diagonal per electron
    if a[3] == c[3] and b[3] == d[3]:
        la, lb, lc, ld = a[1], b[1], c[1], d[1]
        ma, mb, mc, md = a[2], b[2], c[2], d[2]
        if ma + mb == mc + md:
            for k in range(0, max(la + lc, lb + ld) + 1):
                ang = multipole_element(la, ma, lb, mb, lc, mc, ld, md, k)
                if ang == 0.0:
                    continue
                rk = slater_integral(
                    slater, k, (a[0], la), (b[0], lb), (c[0], lc), (d[0], ld),
                    blocks)
                val += ang * rk
    return val


def csf_determinants(cfg, L, ML, S, MS):
    """CSF as a list of (determinant, coefficient) with explicit m labels."""
    terms = csf_expand(cfg.n1, cfg.l, cfg.n2, cfg.l, L, ML, S, MS)
    out = []
    for m, mp, ms, msp, coeff in terms:
        det = ((cfg.n1, cfg.l, m, ms), (cfg.n2, cfg.l, mp, msp))
        out.append((det, coeff))
    return out


def hamiltonian_msum(configs: ConfigList, slater: SlaterIntegralTable,
                     ML=0, MS=0) -> np.ndarray:
    """L = 0 CI Hamiltonian from the raw Slater-determinant expansion.

    The one-body energies come from slater.orbitals.  Every CSF is
    expanded over determinants, every determinant over signed spin-orbital
    products, and the operator is contracted term by term.  Each
    rank_block the radial integrals read is computed once per call.
    O(everything); for toy bases only.
    """
    expansions = [
        csf_determinants(cfg, 0, ML, configs.S, MS)
        for cfg in configs
    ]
    n = len(configs)
    H = np.zeros((n, n))
    blocks = {}   # (k, lb, ld) -> rank_block(k, lb, ld), for this call
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for det_i, ci in expansions[i]:
                for det_j, cj in expansions[j]:
                    for bra_p, bra_q, sb in _det_product_terms(det_i):
                        for ket_p, ket_q, sk in _det_product_terms(det_j):
                            acc += ci * cj * sb * sk * _product_h_element(
                                (bra_p, bra_q), (ket_p, ket_q),
                                slater, blocks,
                            )
            H[i, j] = H[j, i] = acc
    return H


def rdm_m_resolved(state: CIState, configs: ConfigList):
    """Occupation spectrum from the explicit (n, l, m)-indexed construction.

    Builds the full symmetrized spatial coefficient matrix A over the
    combined index (n, l, m), forms rho = A A^T, and diagonalizes it.
    Returns eigenvalues sorted descending.  The per-l block production path
    must reproduce these eigenvalue-for-eigenvalue with multiplicity 2l+1.
    """
    sign = 1.0 if configs.S == 0 else -1.0
    index = {}
    for cfg in configs:
        for n in (cfg.n1, cfg.n2):
            for m in range(-cfg.l, cfg.l + 1):
                index.setdefault((n, cfg.l, m), len(index))
    dim = len(index)
    A = np.zeros((dim, dim))
    for cfg, amp in zip(configs, state.coefficients):
        if amp == 0.0:
            continue
        l = cfg.l
        M = np.zeros((dim, dim))
        for m in range(-l, l + 1):
            cg = clebsch_gordan(l, m, l, -m, 0, 0)
            M[index[(cfg.n1, l, m)], index[(cfg.n2, l, -m)]] += cg
        cfg_mat = M + sign * M.T
        cfg_mat /= np.linalg.norm(cfg_mat)
        A += amp * cfg_mat
    rho = A @ A.T
    lam = np.linalg.eigvalsh(rho)[::-1]
    return lam
