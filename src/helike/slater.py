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

Bulk production runs go through `rank_block`, which computes all integrals
for one (k, l-pair) combination as a single dense tensor via one matrix
product and keeps nothing; scalar lookups are cached on canonicalized
quadruples.
"""
from __future__ import annotations

import numpy as np

from .orbitals import RadialOrbitalSet

SUBCELL_POINTS = 12


class SlaterIntegralTable:
    """Slater integrals for one orbital set; caches samples and scalars."""

    def __init__(self, orbital_set: RadialOrbitalSet,
                 subcell_points: int = SUBCELL_POINTS):
        self.orbitals = orbital_set
        basis = orbital_set.basis
        self.basis = basis
        r = basis.quad_points
        self.r = r
        self.w = basis.quad_weights
        self.cell = basis.quad_cell
        nq = len(r)
        p = subcell_points
        x, gw = np.polynomial.legendre.leggauss(p)
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
        self._scalar_cache: dict[tuple, float] = {}
        self._nq = nq
        self._p = p

    # -- orbital sampling ---------------------------------------------------

    def _main(self, l: int) -> np.ndarray:
        if l not in self._vals_main:
            self._vals_main[l] = self.orbitals.values_at(l, self.r)
        return self._vals_main[l]

    def _left(self, l: int) -> np.ndarray:
        if l not in self._vals_left:
            v = self.orbitals.values_at(l, self.sub_left.ravel())
            self._vals_left[l] = v.reshape(-1, self._nq, self._p)
        return self._vals_left[l]

    def _right(self, l: int) -> np.ndarray:
        if l not in self._vals_right:
            v = self.orbitals.values_at(l, self.sub_right.ravel())
            self._vals_right[l] = v.reshape(-1, self._nq, self._p)
        return self._vals_right[l]

    # -- inner (cumulative) kernels -----------------------------------------

    def _inner(self, k: int, la: int, lb: int) -> np.ndarray:
        """V[a, b, q] = inner integral for pair (a in la, b in lb) at r1 = r_q.

        V = r_q^{-k-1} * int_0^{r_q} r^k chi_a chi_b dr
          + r_q^k      * int_{r_q}^R r^{-k-1} chi_a chi_b dr
        """
        r, w, cell = self.r, self.w, self.cell
        n_cells = self.basis.n_cells
        Xa, Xb = self._main(la), self._main(lb)
        prod = np.einsum("aq,bq->abq", Xa, Xb)
        # per-cell moments on the main grid (points are cell-major, p per cell)
        p = self.basis.quad_order
        mom_lo = prod * (w * r**k)
        mom_hi = prod * (w * r ** (-k - 1))
        cs_lo = mom_lo.reshape(*prod.shape[:2], n_cells, p).sum(axis=3)
        cs_hi = mom_hi.reshape(*prod.shape[:2], n_cells, p).sum(axis=3)
        prefix = np.cumsum(cs_lo, axis=2) - cs_lo        # cells strictly left
        suffix = (np.cumsum(cs_hi[:, :, ::-1], axis=2)[:, :, ::-1] - cs_hi)
        # partially covered cell via sub-cell quadrature
        wl_k = self.sub_wl * self.sub_left**k
        wr_k = self.sub_wr * self.sub_right ** (-k - 1)
        La, Lb = self._left(la), self._left(lb)
        Ra, Rb = self._right(la), self._right(lb)
        part_lo = np.einsum("aqs,bqs,qs->abq", La, Lb, wl_k)
        part_hi = np.einsum("aqs,bqs,qs->abq", Ra, Rb, wr_k)
        P = prefix[:, :, cell] + part_lo
        Q = suffix[:, :, cell] + part_hi
        return P * r ** (-k - 1) + Q * r**k

    # -- public API ---------------------------------------------------------

    def rank_block(self, k: int, la: int, lc: int) -> np.ndarray:
        """All R^k for electron pairs drawn from (la, lc).

        Returns G with G[a, c, b, d] = R^k( (a,la)(b,la), (c,lc)(d,lc) )
        where a, b index orbitals of la and c, d orbitals of lc.  By the
        symmetry of the integrand G[a, c, b, d] == G[b, d, a, c]; the result
        is symmetrized so this holds exactly.
        """
        Xa, Xc = self._main(la), self._main(lc)
        na, nc = Xa.shape[0], Xc.shape[0]
        U = np.einsum("aq,cq->acq", Xa * self.w, Xc).reshape(na * nc, -1)
        V = self._inner(k, la, lc).reshape(na * nc, -1)
        G = U @ V.T
        G = 0.5 * (G + G.T)
        return G.reshape(na, nc, na, nc)

    def _one_orientation(self, k, a, c, b, d) -> float:
        """R^k with (a, c) on the outer quadrature and (b, d) on the inner."""

        def chi(n, l):
            i = n - l - 1
            return (self._main(l)[i], self._left(l)[i], self._right(l)[i])

        Ma, _, _ = chi(*a)
        Mb, Lb_, Rb = chi(*b)
        Mc, _, _ = chi(*c)
        Md, Ld_, Rd = chi(*d)
        r, w, cell = self.r, self.w, self.cell
        prod = Mb * Md
        mom_lo = prod * w * r**k
        mom_hi = prod * w * r ** (-k - 1)
        n_cells = self.basis.n_cells
        cl = np.bincount(cell, weights=mom_lo, minlength=n_cells)
        ch = np.bincount(cell, weights=mom_hi, minlength=n_cells)
        prefix = np.cumsum(cl) - cl
        suffix = np.cumsum(ch[::-1])[::-1] - ch
        part_lo = np.einsum("qs,qs,qs->q", Lb_, Ld_,
                            self.sub_wl * self.sub_left**k)
        part_hi = np.einsum("qs,qs,qs->q", Rb, Rd,
                            self.sub_wr * self.sub_right ** (-k - 1))
        inner = ((prefix[cell] + part_lo) * r ** (-k - 1)
                 + (suffix[cell] + part_hi) * r**k)
        return float(np.dot(w * Ma * Mc, inner))

    def integral(self, k: int, a, b, c, d) -> float:
        """Scalar R^k(a b, c d) with orbital labels (n, l).

        Canonicalized on the exact symmetries R^k(ab,cd) = R^k(ba,dc)
        = R^k(cd,ab) before the cache lookup.  The two quadrature
        orientations (which electron sits on the outer grid) are averaged,
        matching the symmetrization applied to rank_block.
        """
        key = min(
            (a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)
        )
        ck = (k, key)
        if ck in self._scalar_cache:
            return self._scalar_cache[ck]
        ka, kb, kc, kd = key
        val = 0.5 * (self._one_orientation(k, ka, kc, kb, kd)
                     + self._one_orientation(k, kb, kd, ka, kc))
        self._scalar_cache[ck] = val
        return val
