"""Radial Slater integrals: closed forms, symmetries, charge scaling."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike.bspline import BSplineBasis, make_knots
from helike.crosscheck import slater_integral
from helike.orbitals import build_orbital_set
from helike.selftest import HYDROGENIC_RK
from helike.slater import SlaterIntegralTable

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


# folded_block entries holding a closed form, as (k, la, lc, [a, c, b, d])
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
            assert_allclose(t.folded_block([(k, 1.0)], la, lc)[a, c, b, d],
                            exact[key], rtol=1e-12)
            seen.add(key)
        assert len(seen) == 8


def test_block_exchange_symmetry(table):
    G = table.folded_block([(0, 1.0)], 0, 0)
    # G[a, c, b, d] == G[b, d, a, c] exactly after symmetrization
    assert_allclose(G, np.transpose(G, (2, 3, 0, 1)), atol=0.0)


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
        assert_allclose(v3, 3.0 * v1, rtol=1e-8)


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
