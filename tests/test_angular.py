"""Angular momentum algebra vs sympy and brute-force magnetic sums."""
import numpy as np
import pytest
from numpy.testing import assert_allclose
from sympy import N, Rational, sqrt
from sympy.physics.wigner import wigner_3j as sympy_3j

from helike.angular import (
    clebsch_gordan,
    csf_expand,
    reduced_ck,
    wigner_3j,
)
from helike.ci import coupling_coefficient, multipole_ranks
from helike.crosscheck import coupling_coefficient_msum
from helike.errors import InvalidCouplingError, InvalidQuantumNumberError

RNG = np.random.default_rng(1859)


def test_3j_exhaustive_small():
    for j1 in range(4):
        for j2 in range(4):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        m3 = -(m1 + m2)
                        if abs(m3) > j3:
                            continue
                        ref = float(sympy_3j(j1, j2, j3, m1, m2, m3))
                        assert_allclose(wigner_3j(j1, j2, j3, m1, m2, m3),
                                        ref, atol=1e-15)


def test_3j_half_integer_sample():
    for _ in range(60):
        j1 = Rational(int(RNG.integers(0, 8)), 2)
        j2 = Rational(int(RNG.integers(0, 8)), 2)
        j3 = RNG.choice(np.arange(float(abs(j1 - j2)), float(j1 + j2) + 0.5))
        j3 = Rational(int(round(2 * j3)), 2)
        m1 = j1 - int(RNG.integers(0, int(2 * j1) + 1))
        m2 = j2 - int(RNG.integers(0, int(2 * j2) + 1))
        m3 = -(m1 + m2)
        if abs(m3) > j3:
            continue
        ref = float(sympy_3j(j1, j2, j3, m1, m2, m3))
        assert_allclose(wigner_3j(float(j1), float(j2), float(j3),
                                  float(m1), float(m2), float(m3)),
                        ref, atol=1e-14)


def test_3j_orthogonality():
    j1, j2 = 2, 3
    for j3 in range(abs(j1 - j2), j1 + j2 + 1):
        for j3p in range(abs(j1 - j2), j1 + j2 + 1):
            acc = sum(
                wigner_3j(j1, j2, j3, m1, m2, -(m1 + m2))
                * wigner_3j(j1, j2, j3p, m1, m2, -(m1 + m2))
                for m1 in range(-j1, j1 + 1)
                for m2 in range(-j2, j2 + 1)
                if abs(m1 + m2) <= min(j3, j3p)
            )
            # summing over (m1, m2) also sums the shared m3, so the
            # 1/(2j3+1) from each m3 term accumulates to 1
            expect = 1.0 if j3 == j3p else 0.0
            assert_allclose(acc, expect, atol=1e-14)


def test_clebsch_gordan_known_values():
    # singlet coupling of two spin-like l = 1 projections
    assert_allclose(clebsch_gordan(1, 1, 1, -1, 0, 0), 1 / np.sqrt(3))
    assert_allclose(clebsch_gordan(1, 0, 1, 0, 0, 0), -1 / np.sqrt(3))
    assert_allclose(clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0),
                    1 / np.sqrt(2))


def test_reduced_ck_symmetry():
    for l in range(5):
        for lp in range(5):
            for k in range(8):
                a = reduced_ck(l, k, lp)
                b = reduced_ck(lp, k, l)
                assert_allclose(a, (-1.0) ** (l - lp) * b, atol=1e-14)


def test_reduced_ck_diagonal_zero_rank():
    for l in range(6):
        assert_allclose(reduced_ck(l, 0, l), np.sqrt(2 * l + 1))


def test_multipole_ranks_parity_and_triangle():
    assert list(multipole_ranks(1, 1)) == [0, 2]
    assert list(multipole_ranks(0, 1)) == [1]
    assert list(multipole_ranks(0, 0)) == [0]
    assert list(multipole_ranks(2, 2)) == [0, 2, 4]
    assert list(multipole_ranks(3, 1)) == [2, 4]
    for l in range(5):
        for lp in range(5):
            nonzero = [k for k in range(12)
                       if coupling_coefficient(l, lp, k) != 0.0]
            assert nonzero == list(multipole_ranks(l, lp))


def test_coupling_coefficient_vs_magnetic_sum():
    for l in range(5):
        for lp in range(5):
            for k in range(9):
                fast = coupling_coefficient(l, lp, k)
                slow = coupling_coefficient_msum(l, l, lp, lp, 0, k)
                assert_allclose(fast, slow, atol=1e-12)


def test_coupling_coefficient_exact():
    # the monopole factor between equal l is exactly 1: no rounding leaks
    # into the diagonal Coulomb terms
    for l in range(8):
        assert coupling_coefficient(l, l, 0) == 1.0
    # every factor is the exact value rounded, to within one ulp
    for l in range(7):
        for lp in range(7):
            for k in range(l + lp + 2):
                exact = ((-1) ** k * sqrt((2 * l + 1) * (2 * lp + 1))
                         * sympy_3j(l, k, lp, 0, 0, 0) ** 2)
                ref = float(N(exact, 40))
                got = coupling_coefficient(l, lp, k)
                assert abs(got - ref) <= np.spacing(abs(ref)), (l, lp, k)


def test_csf_expansion_normalized():
    for (n1, l1, n2, l2, L, S) in [(1, 0, 2, 0, 0, 0), (1, 0, 2, 0, 0, 1),
                                   (2, 1, 3, 1, 0, 0), (2, 1, 3, 1, 0, 1),
                                   (3, 2, 4, 2, 0, 1)]:
        terms = csf_expand(n1, l1, n2, l2, L, 0, S, 0)
        norm = sum(c * c for *_, c in terms)
        assert_allclose(norm, 1.0, atol=1e-13)


def test_csf_pauli_exclusion():
    assert csf_expand(2, 0, 2, 0, 0, 0, 1, 0) == []


def test_invalid_arguments():
    with pytest.raises(InvalidQuantumNumberError):
        wigner_3j(1, 1, 1, 2, -2, 0)
    with pytest.raises(InvalidQuantumNumberError):
        wigner_3j(1.2, 1, 1, 0, 0, 0)
    with pytest.raises(InvalidCouplingError):
        csf_expand(1, 0, 2, 1, 0, 0, 0, 0)   # l1 != l2 cannot couple to L=0
