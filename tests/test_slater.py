"""Radial Slater integrals: closed forms, symmetries, charge scaling."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike.bspline import BSplineBasis, make_knots
from helike.crosscheck import slater_integral
from helike.orbitals import build_orbital_set
from helike.pipeline import SCAN_DEFAULTS, RunConfig, build_context
from helike.selftest import HYDROGENIC_RK
from helike.slater import SUBCELL_POINTS, SlaterIntegralTable

RNG = np.random.default_rng(7)


def make_table(Z=2.0, n_max=5, l_max=1, r_max=40.0, n_splines=30):
    basis = BSplineBasis(make_knots(r_max, n_splines, 7))
    orbitals = build_orbital_set(basis, Z, n_max, l_max)
    return SlaterIntegralTable(orbitals)


@pytest.fixture(scope="module")
def table():
    return make_table()


def test_ground_direct_integral_closed_form():
    # R^0(1s1s,1s1s) = 5Z/8 for hydrogenic 1s orbitals
    for Z in (1.0, 2.0, 5.0):
        t = make_table(Z=Z, r_max=60.0 / Z, n_splines=35)
        val = slater_integral(t, 0, (1, 0), (1, 0), (1, 0), (1, 0))
        assert_allclose(val, 5.0 * Z / 8.0, atol=1e-9)


def test_1s2s_direct_integral_closed_form(table):
    # F^0(1s,2s) = int |1s(r1)|^2 |2s(r2)|^2 / r_> = 17Z/81
    val = slater_integral(table, 0, (1, 0), (2, 0), (1, 0), (2, 0))
    assert_allclose(val, 17.0 * 2.0 / 81.0, atol=1e-10)


def test_scalar_symmetries(table):
    labels = [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1)]
    for _ in range(25):
        a, b, c, d = (labels[i] for i in RNG.integers(0, len(labels), 4))
        k = int(RNG.integers(0, 3))
        base = slater_integral(table, k, a, b, c, d)
        assert slater_integral(table, k, b, a, d, c) == base
        assert slater_integral(table, k, c, d, a, b) == base
        assert slater_integral(table, k, d, c, b, a) == base


def _rk_key(k, a, b, c, d):
    """Label of R^k(a b, c d) invariant under its eight real-orbital
    symmetries: the unordered pair of per-electron densities {a c}, {b d}."""
    return k, frozenset((frozenset((a, c)), frozenset((b, d))))


# folded_block entries holding a closed form, as (k, la, lc, [a, c, b, d]):
# the outer pair (a, c) and the inner pair (b, d)
IN_BLOCK = [(0, 0, 0, (0, 0, 0, 0)), (0, 0, 0, (0, 0, 1, 1)),
            (0, 0, 0, (0, 1, 1, 0)), (0, 0, 0, (1, 1, 1, 1)),
            (1, 0, 1, (0, 0, 0, 0)), (1, 0, 1, (1, 0, 1, 0)),
            (1, 1, 0, (0, 0, 0, 0)),
            (0, 1, 1, (0, 0, 0, 0)), (2, 1, 1, (0, 0, 0, 0))]


def test_hydrogenic_closed_forms():
    # Condon-Shortley hydrogenic F^k/G^k, through the scalar oracle entry
    # point and through the production blocks that contain them
    for Z in (1.0, 2.0, 5.0):
        t = make_table(Z=Z, n_max=2, l_max=1, r_max=80.0 / Z, n_splines=60)
        exact = {}
        for k, a, b, c, d, value in HYDROGENIC_RK:
            assert_allclose(slater_integral(t, k, a, b, c, d),
                            Z * float(value), rtol=1e-12)
            exact[_rk_key(k, a, b, c, d)] = Z * float(value)
        seen = set()
        for k, la, lc, (a, c, b, d) in IN_BLOCK:
            key = _rk_key(k, (a + la + 1, la), (b + la + 1, la),
                          (c + lc + 1, lc), (d + lc + 1, lc))
            # both orientations averaged, as the CI assembly takes them
            U, W = t.folded_block([(k, 1.0)], la, lc)
            nc = t.orbitals.orbitals(lc).n_orbitals
            ac, bd = a * nc + c, b * nc + d
            assert_allclose(0.5 * (U[ac] @ W[bd] + W[ac] @ U[bd]),
                            exact[key], rtol=1e-12)
            seen.add(key)
        assert len(seen) == 8


def test_positive_direct_integrals(table):
    # k = 0 direct terms are repulsion energies of charge densities
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            val = slater_integral(table, 0, (n1, 0), (n2, 0), (n1, 0), (n2, 0))
            assert val > 0.0


def test_monopole_dominates(table):
    # |R^k| decreases with k for fixed well-separated orbitals
    v0 = slater_integral(table, 0, (2, 1), (2, 1), (2, 1), (2, 1))
    v2 = slater_integral(table, 2, (2, 1), (2, 1), (2, 1), (2, 1))
    assert v0 > abs(v2) > 0.0


def test_charge_scaling():
    # hydrogenic scaling r -> r/Z makes every R^k linear in Z
    t1 = make_table(Z=1.0, r_max=60.0, n_splines=35)
    t3 = make_table(Z=3.0, r_max=20.0, n_splines=35)
    for (k, a, b, c, d) in [(0, (1, 0), (2, 0), (1, 0), (2, 0)),
                            (0, (1, 0), (2, 0), (2, 0), (1, 0)),
                            (1, (1, 0), (2, 1), (2, 1), (1, 0))]:
        v1 = slater_integral(t1, k, a, b, c, d)
        v3 = slater_integral(t3, k, a, b, c, d)
        assert_allclose(v3, 3.0 * v1, rtol=1e-12)


def test_inner_integral_against_compensated_sum():
    # At high k near the nucleus each outer point's own quadrature terms
    # outweigh the rest of the inner integral by orders of magnitude, so a
    # difference of partial sums loses digits there; the reference adds the
    # same quadrature terms with math.fsum.
    basis = BSplineBasis(make_knots(30.0, 12, 7))
    t = SlaterIntegralTable(build_orbital_set(basis, 2.0, 8, 4))
    k, l = 8, 4
    r, w, cell = t.r, t.w, t.cell
    X = t.orbitals.values_at(r)[l]
    sub = t.orbitals.values_at(t.sub_r.ravel())[l].reshape(len(X), len(r), -1)
    V = t.rank_block(k, l, l)
    worst = 0.0
    for q, rq in enumerate(r):
        # main-grid points outside r_q's cell, then its sub-cell nodes
        out = cell != cell[q]
        x = np.concatenate((r[out], t.sub_r[q]))
        lo, hi = np.minimum(x, rq), np.maximum(x, rq)
        terms = np.concatenate((w[out], t.sub_w[q])) * lo**k / hi ** (k + 1)
        Y = np.concatenate((X[:, out], sub[:, q]), axis=1)
        for b in range(len(X)):
            for d in range(len(X)):
                ref = math.fsum(terms * Y[b] * Y[d])
                worst = max(worst, abs(V[b, d, q] - ref) / abs(ref))
    assert worst <= 1e-12


def _dense_inner(t, k, X, S, Y, T):
    """Inner integrals from orbitals sampled on every quadrature node.

    X, Y: two l's orbitals on the main grid, (n, Q); S, T: the same on
    each outer point's sub-cell nodes, (n, Q, 2 * SUBCELL_POINTS).
    """
    r = t.r
    lo, hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    K = np.where(t.cell[:, None] == t.cell, 0.0,
                 t.w[:, None] * (lo / hi) ** k / hi)
    lo, hi = np.minimum(t.sub_r, r[:, None]), np.maximum(t.sub_r, r[:, None])
    sub = t.sub_w * (lo / hi) ** k / hi
    return (np.einsum("bq,dq,qp->bdp", X, Y, K, optimize=True)
            + np.einsum("bqs,dqs,qs->bdq", S, T, sub, optimize=True))


def test_own_cell_through_local_splines():
    # rank_block integrates r_q's own cell through the splines that are
    # nonzero on it; the reference samples every orbital on all sub-cell
    # nodes.  The toy basis has few cells, and in those at r = 0 and r = R
    # the first and last spline are dropped.  Each outer point's inner
    # integrals V[:, :, q] are compared relative to their largest entry.
    toy = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    sets = [build_orbital_set(toy, 2.0, 4, 2)]
    for z in (1.0, 100.0):
        ctx = build_context(RunConfig(z=z, **SCAN_DEFAULTS), ())
        sets.append(ctx.orbitals)
    for orbitals in sets:
        t = SlaterIntegralTable(orbitals)
        X = orbitals.values_at(t.r)
        S = {l: v.reshape(len(v), len(t.r), -1)
             for l, v in orbitals.values_at(t.sub_r.ravel()).items()}
        for la in X:
            for lc in X:
                for k in range(la + lc + 1):
                    ref = _dense_inner(t, k, X[la], S[la], X[lc], S[lc])
                    err = np.abs(t.rank_block(k, la, lc) - ref).max((0, 1))
                    assert np.all(err <= 1e-13 * np.abs(ref).max((0, 1))), (
                        orbitals.Z, k, la, lc)


def test_table_holds_no_sub_cell_samples():
    # He l4,n30, r_max 60: the table holds each orbital on the main grid
    # and its coefficients on each cell's splines, not on every outer
    # point's sub-cell nodes
    ctx = build_context(RunConfig(z=2.0, l_max=4, n_max=30, r_max=60.0), ())
    t = SlaterIntegralTable(ctx.orbitals)

    def held(value):
        if isinstance(value, np.ndarray):
            return [value]
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            return [a for v in value for a in held(v)]
        return []

    arrays = held(list(vars(t).values()))
    assert sum(a.nbytes for a in arrays) <= 3.5e6
    nq = len(t.r)
    for l in range(5):
        n_orb = ctx.orbitals.orbitals(l).n_orbitals
        assert all(a.shape != (n_orb, nq, 2 * SUBCELL_POINTS)
                   for a in arrays)
