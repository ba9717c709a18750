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

Only `order` B-splines are nonzero on a cell, and there chi_b = C_b B with
C_b the orbital's coefficients on them.  So the own cell goes through those
local splines: with B_q their values on r_q's sub-cell nodes and sub_k[q]
the kernel weights there, its term is C_b O_k[q] C_d^T with the order x
order matrix O_k[q] = B_q^T diag(sub_k[q]) B_q.  The table holds the
orbitals on the main grid, B_q, each l's coefficients per cell and the
kernel geometry r_< / r_> and r_>.

Only the inner integral depends on k.  `rank_block` returns it for one
rank and one pair of l's; `folded_block` sums the ranks a CI block needs,
weighted by their angular factors, and returns that sum with the outer
pair densities: the two factors of the block's outer integral, whose
product the CI assembly takes band by band.  Neither keeps anything; the
scalar oracle in crosscheck.py reads `rank_block` too.
"""
from __future__ import annotations

import numpy as np

from .bspline import nonzero_basis
from .orbitals import RadialOrbitalSet

SUBCELL_POINTS = 12


class SlaterIntegralTable:
    """Slater integrals for one orbital set; holds its orbitals' samples on
    the main grid and their coefficients on each cell's splines."""

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
        # kernel geometry r_< / r_> and r_>: on the main grid, with r_>
        # infinite inside r_q's own cell so that its kernel weights are 0,
        # and on each outer point's sub-cell nodes
        def geometry(x, rq):
            lo, hi = np.minimum(x, rq), np.maximum(x, rq)
            return lo / hi, hi

        self._ratio, self._hi = geometry(r[:, None], r)
        self._hi[self.cell[:, None] == self.cell] = np.inf
        self._sub_ratio, self._sub_hi = geometry(self.sub_r, r[:, None])
        # chi_nl of every l on the main grid, (n_orb, n_points)
        self._samples = orbital_set.values_at(r)
        # values of the `order` splines J = mu - order + 1 .. mu of each cell
        # (knot index mu) on its outer points' sub-cell nodes, (n_points,
        # 2 * SUBCELL_POINTS, order), and each l's coefficients on J,
        # (n_cells, n_orb, order), 0 on the dropped first and last spline
        _, local = nonzero_basis(basis.knots, self.sub_r.ravel(), basis.order)
        self._local = local.reshape(len(r), -1, basis.order)
        mu = np.searchsorted(basis.knots.points, bp[:-1], side="right") - 1
        J = mu[:, None] + np.arange(1 - basis.order, 1)
        self._coeffs = {
            l: np.pad(orb.coefficients, ((0, 0), (1, 1)))[:, J]
            .transpose(1, 0, 2).copy()
            for l, orb in orbital_set.per_l.items()}

    def _kernel(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature weights of r_<^k / r_>^{k+1} for each outer point r_q.

        K[q', q] on the main-grid points q' outside r_q's cell (zero inside
        it), and sub[q, s] on the sub-cell nodes of r_q's cell.
        """
        K = self._ratio ** k
        K *= self.w[:, None]
        K /= self._hi
        return K, self.sub_w * self._sub_ratio ** k / self._sub_hi

    # -- public API ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the table holds."""
        arrays = [self._ratio, self._hi, self._sub_ratio, self._sub_hi,
                  self.sub_r, self.sub_w, self._local,
                  *self._samples.values(), *self._coeffs.values()]
        return sum(a.nbytes for a in arrays)

    def peak_bytes(self) -> int:
        """Most that folded_block holds at once, in bytes.

        The table's arrays, plus the rank sum W at l = 0, which has the
        most orbitals, beside one rank_block call: its V, the pair product
        or the own-cell part, the kernel matrix K, and the own cell's
        per-point products O_k and C_b O_k.  The pair densities U are
        formed after the last rank, beside W alone.
        """
        nq, order = len(self.r), self.basis.order
        n0 = self.orbitals.orbitals(0).n_orbitals
        pairs = n0**2 * nq
        ranks = 3 * pairs + nq**2 + nq * order * (order + n0)
        return self.nbytes + 8 * ranks

    def rank_block(self, k: int, la: int, lc: int) -> np.ndarray:
        """V[b, d, q] = rank-k inner integral for b in la, d in lc at r1 = r_q.

        V = int_0^R r_<^k / r_>^{k+1} chi_b chi_d dr,  r_< = min(r, r_q)
        """
        K, sub = self._kernel(k)
        Xb, Xd = self._samples[la], self._samples[lc]
        nq = len(self.r)
        V = (np.einsum("bq,dq->bdq", Xb, Xd).reshape(-1, nq) @ K
             ).reshape(len(Xb), len(Xd), nq)
        # r_q's own cell through its local splines: O_k[q] = B_q^T
        # diag(sub[q]) B_q, then C_b O_k[q] C_d^T with the coefficients on
        # r_q's cell; the products with C_d^T take all of a cell's outer
        # points at once
        B = self._local
        O = (B * sub[:, :, None]).transpose(0, 2, 1) @ B
        Cb, Cd = self._coeffs[la], self._coeffs[lc]
        n_cells, _, order = Cb.shape
        CO = Cb[:, None] @ O.reshape(n_cells, -1, order, order)
        own = CO.reshape(n_cells, -1, order) @ Cd.transpose(0, 2, 1)
        V += own.reshape(nq, len(Xb), len(Xd)).transpose(1, 2, 0)
        return V

    def folded_block(self, terms: list[tuple[int, float]], la: int,
                     lc: int) -> tuple[np.ndarray, np.ndarray]:
        """The two factors of sum_k c_k R^k for electron pairs from (la, lc).

        terms is [(k, c_k), ...].  Returns (U, W), each (na * nc, Q) with
        the pair (a, c) of an la orbital a and an lc orbital c in row
        a * nc + c: U[(a, c), q] = w_q chi_a(r_q) chi_c(r_q) is the outer
        pair density and W[(b, d), q] = sum_k c_k V_k[b, d, q] the
        rank-summed inner integral at r1 = r_q.  Only the inner integral
        depends on k, so the ranks are summed there, in place.  Then
        U_ac . W_bd = sum_k c_k R^k( (a,la)(b,la), (c,lc)(d,lc) ) with the
        pair (a, c) on the outer grid; the other orientation U_bd . W_ac
        gives the same integral but for rounding and quadrature error, and
        the CI assembly takes the average of the two.
        """
        (k, ck), *rest = terms
        W = self.rank_block(k, la, lc) * ck
        for k, ck in rest:
            W += ck * self.rank_block(k, la, lc)
        Xa, Xc = self._samples[la], self._samples[lc]
        U = np.einsum("aq,cq->acq", Xa * self.w, Xc)
        nq = len(self.r)
        return U.reshape(-1, nq), W.reshape(-1, nq)
