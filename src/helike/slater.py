"""Radial Slater integrals R^k over the B-spline quadrature grid.

R^k(a b, c d) = int int chi_a(r1) chi_c(r1) [r_<^k / r_>^{k+1}]
                        chi_b(r2) chi_d(r2) dr1 dr2

is computed by the two-pass cumulative method: for every outer quadrature
point r1 the inner integral splits into a prefix part int_0^{r1} r2^k .. dr2
times r1^{-k-1} plus a suffix part r1^k int_{r1}^R r2^{-k-1} .. dr2.  Whole
cells left/right of r1's cell are accumulated from per-cell moments; the
partially covered cell is integrated on dedicated sub-cell Gauss-Legendre
nodes (precomputed per outer point), keeping the quadrature exact for the
piecewise-polynomial integrand on both sides of the kernel kink at r1 = r2.

One kernel, `_block`, computes every integral for one (k, four l's)
combination as a dense tensor via one matrix product and keeps nothing.
Production runs read it through `rank_block`; the scalar `integral`, an
oracle and test entry point, indexes the same tensor.
"""
from __future__ import annotations

import numpy as np

from .orbitals import RadialOrbitalSet

SUBCELL_POINTS = 12
# rank_block symmetrizes in tiles of this many rows and columns
SYMMETRIZE_TILE = 256


class SlaterIntegralTable:
    """Slater integrals for one orbital set; caches orbital samples per l."""

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
        lo = bp[self.cell]          # left edge of each outer point's cell
        hi = bp[self.cell + 1]      # right edge
        # sub-cell nodes/weights covering [lo, r1] and [r1, hi]
        half_l = 0.5 * (r - lo)
        half_r = 0.5 * (hi - r)
        self.sub_left = lo[:, None] + half_l[:, None] * (x[None, :] + 1.0)
        self.sub_wl = half_l[:, None] * gw[None, :]
        self.sub_right = r[:, None] + half_r[:, None] * (x[None, :] + 1.0)
        self.sub_wr = half_r[:, None] * gw[None, :]
        # orbital values: main grid and sub-cell nodes, lazily per l
        self._vals_main: dict[int, np.ndarray] = {}
        self._vals_left: dict[int, np.ndarray] = {}
        self._vals_right: dict[int, np.ndarray] = {}

    # -- orbital sampling ---------------------------------------------------

    def _main(self, l: int) -> np.ndarray:
        if l not in self._vals_main:
            self._vals_main[l] = self.orbitals.values_at(l, self.r)
        return self._vals_main[l]

    def _left(self, l: int) -> np.ndarray:
        if l not in self._vals_left:
            v = self.orbitals.values_at(l, self.sub_left.ravel())
            self._vals_left[l] = v.reshape(-1, *self.sub_left.shape)
        return self._vals_left[l]

    def _right(self, l: int) -> np.ndarray:
        if l not in self._vals_right:
            v = self.orbitals.values_at(l, self.sub_right.ravel())
            self._vals_right[l] = v.reshape(-1, *self.sub_right.shape)
        return self._vals_right[l]

    # -- inner (cumulative) kernels -----------------------------------------

    def _inner(self, k: int, lb: int, ld: int) -> np.ndarray:
        """V[b, d, q] = inner integral for pair (b in lb, d in ld) at r1 = r_q.

        V = r_q^{-k-1} * int_0^{r_q} r^k chi_b chi_d dr
          + r_q^k      * int_{r_q}^R r^{-k-1} chi_b chi_d dr
        """
        r, w, cell = self.r, self.w, self.cell
        n_cells = self.basis.n_cells
        Xb, Xd = self._main(lb), self._main(ld)
        prod = np.einsum("bq,dq->bdq", Xb, Xd)
        # per-cell moments on the main grid (points are cell-major, p per cell)
        p = self.basis.quad_order
        mom_lo = prod * (w * r**k)
        mom_hi = prod * (w * r ** (-k - 1))
        cs_lo = mom_lo.reshape(*prod.shape[:2], n_cells, p).sum(axis=3)
        cs_hi = mom_hi.reshape(*prod.shape[:2], n_cells, p).sum(axis=3)
        prefix = np.cumsum(cs_lo, axis=2) - cs_lo        # cells left of it
        suffix = (np.cumsum(cs_hi[:, :, ::-1], axis=2)[:, :, ::-1] - cs_hi)
        # partially covered cell via sub-cell quadrature: one (b, s) @ (s, d)
        # product per outer point q, batched over q
        wl_k = self.sub_wl * self.sub_left**k
        wr_k = self.sub_wr * self.sub_right ** (-k - 1)
        Lb, Ld = self._left(lb), self._left(ld)
        Rb, Rd = self._right(lb), self._right(ld)
        part_lo = (Lb * wl_k).transpose(1, 0, 2) @ Ld.transpose(1, 2, 0)
        part_hi = (Rb * wr_k).transpose(1, 0, 2) @ Rd.transpose(1, 2, 0)
        P = prefix[:, :, cell] + part_lo.transpose(1, 2, 0)
        Q = suffix[:, :, cell] + part_hi.transpose(1, 2, 0)
        return P * r ** (-k - 1) + Q * r**k

    def _block(self, k: int, la: int, lc: int, lb: int, ld: int) -> np.ndarray:
        """B[a, c, b, d] = R^k((a,la)(b,lb), (c,lc)(d,ld)), one orientation.

        The pair (a, c) sits on the outer quadrature, (b, d) in the inner
        integral; the two orientations agree to quadrature accuracy.
        """
        Xa, Xc = self._main(la), self._main(lc)
        na, nc = Xa.shape[0], Xc.shape[0]
        U = np.einsum("aq,cq->acq", Xa * self.w, Xc).reshape(na * nc, -1)
        V = self._inner(k, lb, ld)
        nb, nd = V.shape[:2]
        return (U @ V.reshape(nb * nd, -1).T).reshape(na, nc, nb, nd)

    # -- public API ---------------------------------------------------------

    def rank_block(self, k: int, la: int, lc: int) -> np.ndarray:
        """All R^k for electron pairs drawn from (la, lc).

        Returns G with G[a, c, b, d] = R^k( (a,la)(b,la), (c,lc)(d,lc) )
        where a, b index orbitals of la and c, d orbitals of lc.  By the
        symmetry of the integrand G[a, c, b, d] == G[b, d, a, c]; the result
        is symmetrized so this holds exactly.
        """
        G = self._block(k, la, lc, la, lc)
        na, nc = G.shape[:2]
        M = G.reshape(na * nc, -1)
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
        return G

    def integral(self, k: int, a, b, c, d) -> float:
        """Scalar R^k(a b, c d) with orbital labels (n, l); oracle use only.

        Canonicalized on the exact symmetries R^k(ab,cd) = R^k(ba,dc)
        = R^k(cd,ab) so that all four give the same float.  The two
        quadrature orientations (which electron sits on the outer grid) are
        averaged, as the symmetrization of rank_block does.
        """
        key = min(
            (a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)
        )
        (ia, la), (ib, lb), (ic, lc), (id_, ld) = (
            (n - l - 1, l) for n, l in key)
        return float(0.5 * (self._block(k, la, lc, lb, ld)[ia, ic, ib, id_]
                            + self._block(k, lb, ld, la, lc)[ib, id_, ia, ic]))
