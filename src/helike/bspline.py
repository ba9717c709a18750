"""B-spline radial basis on [0, R] with per-interval Gauss-Legendre quadrature.

The basis functions B_{i,k}(r), i = 1..N, of order k live on a clamped knot
sequence with k-fold endpoint multiplicity; make_knots spaces its interior
knots exponentially, so they cluster near the nucleus.  Evaluation is
vectorized over points: one Cox-de Boor recurrence, with the
zero-denominator terms dropped, runs over all points at once.  Values come
from its order-k row and first derivatives from its order-(k-1) row (de
Boor, A Practical Guide to Splines, 1978).  All radial integrals in the
package are taken on the per-breakpoint-interval Gauss-Legendre grid of
order + 1 points cached here, which is exact for products of two splines
against polynomial weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class KnotSequence:
    """Clamped non-decreasing knot sequence on [0, r_max].

    len(points) == n_splines + order; the first and last `order` entries
    coincide with the endpoints.
    """

    points: np.ndarray
    order: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        k = self.order
        if k < 2:
            raise InvalidParameterError(f"order must be >= 2, got {k}")
        if not np.all(np.isfinite(pts)):
            raise InvalidParameterError("knot points must be finite")
        if np.any(np.diff(pts) < 0):
            raise InvalidParameterError("knot points must be non-decreasing")
        if not (np.all(pts[:k] == pts[0]) and np.all(pts[-k:] == pts[-1])):
            raise InvalidParameterError(
                f"endpoints must have multiplicity {k}"
            )
        if pts[-1] <= pts[0]:
            raise InvalidParameterError("knot range must have positive length")

    @property
    def n_splines(self) -> int:
        return len(self.points) - self.order

    @property
    def r_max(self) -> float:
        return float(self.points[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        """Distinct knot values (the quadrature cell boundaries)."""
        return np.unique(self.points)


def make_knots(r_max, n_splines, order, gamma=6.0):
    """Clamped knot sequence on [0, r_max] with exponentially spaced interior.

    The interior knots are t = r_max * (exp(gamma*x) - 1) / (exp(gamma) - 1)
    with x uniform on (0, 1), clustering them near the origin; gamma must
    be finite and positive.
    """
    if r_max <= 0:
        raise InvalidParameterError(f"r_max must be positive, got {r_max}")
    if order < 2:
        raise InvalidParameterError(f"order must be >= 2, got {order}")
    if n_splines <= order:
        raise InvalidParameterError(
            f"n_splines ({n_splines}) must exceed order ({order})"
        )
    if not 0.0 < gamma < np.inf:
        raise InvalidParameterError(
            f"gamma must be finite and positive, got {gamma}")
    x = np.linspace(0.0, 1.0, n_splines - order + 2)
    interior = r_max * np.expm1(gamma * x[1:-1]) / np.expm1(gamma)
    points = np.concatenate(
        [np.zeros(order), interior, np.full(order, float(r_max))]
    )
    return KnotSequence(points=points, order=order)


def _over_support(t: np.ndarray, mu: np.ndarray, vals: np.ndarray):
    """Knots and B_{i,j}/(t_{i+j}-t_i) of the order-j splines i = mu-j+1..mu.

    vals holds their values, one column per spline (j = vals.shape[1]).
    Returns (t_i, t_{i+j}, ratio); the ratio is zero where t_{i+j} = t_i.
    """
    j = vals.shape[1]
    i = mu[:, None] + np.arange(1 - j, 1)
    lo, hi = t[i], t[i + j]
    d = hi - lo
    return lo, hi, np.divide(vals, d, out=np.zeros_like(vals), where=d > 0.0)


def _nonzero_basis(knots: KnotSequence, r: np.ndarray,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells and the m nonzero order-m B-spline values at each point of r.

    Returns (mu, vals): mu[p] indexes knots.points with t[mu] <= r < t[mu+1]
    (the last cell closed at r_max, clamped to [k-1, n-1]) and
    vals[p, j] = B_{mu[p]-m+1+j, m}(r[p]) with 0-based spline indices, for
    m <= k.  One pass of the Cox-de Boor triangle over all points; terms
    whose denominator is zero are dropped.
    """
    t = knots.points
    mu = np.searchsorted(t, r, side="right") - 1
    mu = np.clip(mu, knots.order - 1, knots.n_splines - 1)
    vals = np.ones((len(r), 1))
    for j in range(1, m):
        # each order-j spline feeds two of order j+1
        lo, hi, term = _over_support(t, mu, vals)
        vals = np.zeros((len(r), j + 1))
        vals[:, :-1] = (hi - r[:, None]) * term
        vals[:, 1:] += (r[:, None] - lo) * term
    return mu, vals


class BSplineBasis:
    """B-spline basis with a cached Gauss-Legendre grid per breakpoint cell.

    Each cell holds order + 1 points, exact for polynomial integrands up to
    degree 2*order + 1 (covers spline pairs against smooth polynomial
    weights of low degree).
    """

    def __init__(self, knots: KnotSequence):
        self.knots = knots
        self.order = knots.order
        self.n_splines = knots.n_splines
        p = knots.order + 1
        bp = knots.breakpoints
        self.breakpoints = bp
        self.n_cells = len(bp) - 1
        x, w = np.polynomial.legendre.leggauss(p)
        lo = bp[:-1][:, None]
        hi = bp[1:][:, None]
        half = 0.5 * (hi - lo)
        # shape (n_cells, p), flattened ascending
        self.quad_points = (lo + half * (x[None, :] + 1.0)).ravel()
        self.quad_weights = (half * w[None, :]).ravel()
        self.quad_cell = np.repeat(np.arange(self.n_cells), p)

    @property
    def r_max(self) -> float:
        return self.knots.r_max

    def _scatter(self, mu: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """(len(mu), n_splines) matrix with vals in columns mu-k+1 .. mu."""
        out = np.zeros((len(mu), self.n_splines))
        cols = mu[:, None] + np.arange(1 - self.order, 1)
        np.put_along_axis(out, cols, vals, axis=1)
        return out

    def eval_matrix(self, points) -> np.ndarray:
        """Dense (len(points), n_splines) matrix of basis values."""
        pts = np.asarray(points, dtype=float).ravel()
        return self._scatter(*_nonzero_basis(self.knots, pts, self.order))

    def deriv_matrix(self, points) -> np.ndarray:
        """Dense (len(points), n_splines) matrix of basis first derivatives.

        dB_{i,k}/dr = (k-1) [B_{i,k-1}/(t_{i+k-1}-t_i)
                             - B_{i+1,k-1}/(t_{i+k}-t_{i+1})]
        """
        k = self.order
        pts = np.asarray(points, dtype=float).ravel()
        mu, lower = _nonzero_basis(self.knots, pts, k - 1)
        _, _, term = _over_support(self.knots.points, mu, lower)
        vals = np.zeros((len(pts), k))
        vals[:, 1:] = term
        vals[:, :-1] -= term
        return self._scatter(mu, (k - 1) * vals)

    @cached_property
    def quad_values(self) -> np.ndarray:
        """Basis values at the cached quadrature points, shape (nq, N)."""
        return self.eval_matrix(self.quad_points)

    @cached_property
    def quad_derivs(self) -> np.ndarray:
        """Basis derivatives at the cached quadrature points, shape (nq, N)."""
        return self.deriv_matrix(self.quad_points)

    def overlap_matrix(self) -> np.ndarray:
        """S_ij = integral of B_i B_j over [0, R]; exactly symmetric."""
        B = self.quad_values
        S = (B * self.quad_weights[:, None]).T @ B
        return 0.5 * (S + S.T)
