"""Radial Slater integrals R^k over the B-spline quadrature grid.

R^k(a b, c d) = int int chi_a(r1) chi_c(r1) [r_<^k / r_>^{k+1}]
                        chi_b(r2) chi_d(r2) dr1 dr2

The outer integral runs over the main quadrature grid.  For every outer
point r1 = r_q the inner integral splits by cell: the cells other than r_q's
are a matrix product with the kernel K_k[q', q] = w_q' r_<^k / r_>^{k+1},
which depends only on the grid and k and is zero inside r_q's own cell; that
cell is integrated on dedicated sub-cell Gauss-Legendre nodes either side of
r_q, keeping the quadrature exact for the piecewise-polynomial integrand on
both sides of the kernel kink at r1 = r2.  Each quadrature term enters the
inner sum once: a partial sum minus the own cell's terms would cancel most
digits near the nucleus at high k, where those terms dominate.

Only the inner integral depends on k.  `rank_block` returns it for one
rank and one pair of l's; `folded_block` sums the ranks a CI block needs,
weighted by their angular factors, and takes the outer integral of the sum
as one matrix product.  Neither keeps anything; the scalar oracle in
crosscheck.py reads `rank_block` too.
"""
from __future__ import annotations

import numpy as np

from .orbitals import RadialOrbitalSet

SUBCELL_POINTS = 12
# folded_block symmetrizes in tiles of this many rows and columns
SYMMETRIZE_TILE = 256


class SlaterIntegralTable:
    """Slater integrals for one orbital set; holds its orbital samples."""

    def __init__(self, orbital_set: RadialOrbitalSet):
        self.orbitals = orbital_set
        basis = orbital_set.basis
        self.basis = basis
        r = basis.quad_points
        self.r = r
        self.w = basis.quad_weights
        self.cell = basis.quad_cell
        x, gw = np.polynomial.legendre.leggauss(SUBCELL_POINTS)
        bp = basis.breakpoints
        # sub-cell nodes/weights of each outer point r1's cell [lo, hi]:
        # SUBCELL_POINTS on [lo, r1], then as many on [r1, hi]
        edges = np.stack((bp[self.cell], r, bp[self.cell + 1]), axis=1)
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        nodes = edges[:, :2, None] + half * (x + 1.0)
        self.sub_r = nodes.reshape(len(r), -1)
        self.sub_w = (half * gw).reshape(len(r), -1)
        # chi_nl of every l on the main grid, (n_orb, n_points), and on the
        # sub-cell nodes, (n_orb, n_points, 2 * SUBCELL_POINTS), sampled in
        # one values_at call
        nq = len(r)
        points = np.concatenate((r, self.sub_r.ravel()))
        self._samples = {
            l: (v[:, :nq], v[:, nq:].reshape(len(v), nq, -1))
            for l, v in orbital_set.values_at(points).items()}

    def _kernel(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature weights of r_<^k / r_>^{k+1} for each outer point r_q.

        K[q', q] on the main-grid points q' outside r_q's cell (zero inside
        it), and sub[q, s] on the sub-cell nodes of r_q's cell.
        """
        def weights(w, x, rq):
            lo, hi = np.minimum(x, rq), np.maximum(x, rq)
            return w * (lo / hi) ** k / hi

        r = self.r
        K = weights(self.w[:, None], r[:, None], r[None, :])
        K[self.cell[:, None] == self.cell[None, :]] = 0.0
        return K, weights(self.sub_w, self.sub_r, r[:, None])

    # -- public API ---------------------------------------------------------

    def peak_bytes(self, l_max: int) -> int:
        """Most that folded_block holds at once for l <= l_max, in bytes.

        The orbital samples the table holds for every l, plus the larger of
        its two phases at l = 0, which has the most orbitals: the rank sum W
        beside one rank_block call (its V, the pair product or the
        own-cell part, and the kernel matrix K); then W, U and the block
        with one symmetrization tile.
        """
        nq = len(self.r)
        n = [self.orbitals.orbitals(l).n_orbitals for l in range(l_max + 1)]
        samples = (1 + 2 * SUBCELL_POINTS) * nq * sum(n)
        pairs = n[0] ** 2 * nq
        ranks = 3 * pairs + nq**2
        outer = 2 * pairs + n[0] ** 4 + min(SYMMETRIZE_TILE, n[0] ** 2) ** 2
        return 8 * (samples + max(ranks, outer))

    def rank_block(self, k: int, la: int, lc: int) -> np.ndarray:
        """V[b, d, q] = rank-k inner integral for b in la, d in lc at r1 = r_q.

        V = int_0^R r_<^k / r_>^{k+1} chi_b chi_d dr,  r_< = min(r, r_q)
        """
        K, sub = self._kernel(k)
        Xb, Sb = self._samples[la]
        Xd, Sd = self._samples[lc]
        nq = len(self.r)
        V = (np.einsum("bq,dq->bdq", Xb, Xd).reshape(-1, nq) @ K
             ).reshape(len(Xb), len(Xd), nq)
        # r_q's own cell: one (b, s) @ (s, d) product per outer point q,
        # batched over q
        own = (Sb * sub).transpose(1, 0, 2) @ Sd.transpose(1, 2, 0)
        V += own.transpose(1, 2, 0)
        return V

    def folded_block(self, terms: list[tuple[int, float]], la: int,
                     lc: int) -> np.ndarray:
        """G = sum_k c_k R^k for electron pairs drawn from (la, lc).

        terms is [(k, c_k), ...].  Returns G with G[a, c, b, d] =
        sum_k c_k R^k( (a,la)(b,la), (c,lc)(d,lc) ) where a, b index
        orbitals of la and c, d orbitals of lc.  Only the inner integral
        depends on k, so the ranks are summed there, in place, and the
        outer product over the pair (a, c) is taken once.  By the symmetry
        of the integrand G[a, c, b, d] == G[b, d, a, c]; the result is
        symmetrized so this holds exactly.
        """
        (k, ck), *rest = terms
        W = self.rank_block(k, la, lc) * ck
        for k, ck in rest:
            W += ck * self.rank_block(k, la, lc)
        Xa, Xc = self._samples[la][0], self._samples[lc][0]
        na, nc = Xa.shape[0], Xc.shape[0]
        U = np.einsum("aq,cq->acq", Xa * self.w, Xc).reshape(na * nc, -1)
        M = U @ W.reshape(na * nc, -1).T
        # in place, one tile pair at a time: no second full-size copy;
        # (a + b) * 0.5 is the same float for both halves
        for i in range(0, len(M), SYMMETRIZE_TILE):
            for j in range(i, len(M), SYMMETRIZE_TILE):
                upper = M[i:i + SYMMETRIZE_TILE, j:j + SYMMETRIZE_TILE]
                lower = M[j:j + SYMMETRIZE_TILE, i:i + SYMMETRIZE_TILE]
                tile = upper + lower.T
                tile *= 0.5
                upper[...] = tile
                lower[...] = tile.T
        return M.reshape(na, nc, na, nc)
