"""Wigner 3-j algebra for the brute-force oracle in crosscheck.py.

Only crosscheck.py and selftest.py (through crosscheck) use this module;
production CI takes its angular factor from the L = 0 closed form in
ci.coupling_coefficient and shares no code with it.  Here 3-j symbols,
Clebsch-Gordan coefficients, reduced matrix elements of C^k and the
determinant expansion of coupled two-electron states are evaluated from
the Racah closed forms with exact integer / rational arithmetic (python
ints and fractions.Fraction); the only rounding is the final square root.
Angular momenta are passed as floats or ints and may be half-integral;
internally everything is carried as doubled integers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidCouplingError, InvalidQuantumNumberError


def _two_j(x, name="j"):
    t = 2.0 * float(x)
    ti = round(t)
    if abs(t - ti) > 1e-9:
        raise InvalidQuantumNumberError(f"{name}={x} is not half-integral")
    return int(ti)


def _triangle_ok(tj1, tj2, tj3):
    return (
        abs(tj1 - tj2) <= tj3 <= tj1 + tj2 and (tj1 + tj2 + tj3) % 2 == 0
    )


def _fact(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return math.factorial(n)


def _sqrt_signed(coeff: Fraction, radicand: Fraction) -> float:
    """coeff * sqrt(radicand), evaluated as sign(coeff)*sqrt(coeff^2*radicand)."""
    if coeff == 0 or radicand == 0:
        return 0.0
    square = coeff * coeff * radicand
    val = math.sqrt(square.numerator / square.denominator)
    return val if coeff > 0 else -val


@lru_cache(maxsize=100000)
def _wigner_3j_doubled(tj1, tj2, tj3, tm1, tm2, tm3) -> float:
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0
    # Racah formula; all arguments below are guaranteed integral.
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    d = (tj1 + tj2 + tj3) // 2 + 1
    radicand = Fraction(_fact(a) * _fact(b) * _fact(c), _fact(d))
    radicand *= (
        _fact((tj1 + tm1) // 2) * _fact((tj1 - tm1) // 2)
        * _fact((tj2 + tm2) // 2) * _fact((tj2 - tm2) // 2)
        * _fact((tj3 + tm3) // 2) * _fact((tj3 - tm3) // 2)
    )
    t_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    t_max = min(a, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    acc = Fraction(0)
    for t in range(t_min, t_max + 1):
        den = (
            _fact(t)
            * _fact(a - t)
            * _fact((tj1 - tm1) // 2 - t)
            * _fact((tj2 + tm2) // 2 - t)
            * _fact((tj3 - tj2 + tm1) // 2 + t)
            * _fact((tj3 - tj1 - tm2) // 2 + t)
        )
        acc += Fraction((-1) ** t, den)
    sign = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    return sign * _sqrt_signed(acc, radicand)


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3).

    Zero when m1+m2+m3 != 0 or the triangle rule fails; raises when a j/m
    pair is not consistently (half-)integral or |m| > j.
    """
    tj = [_two_j(j, "j") for j in (j1, j2, j3)]
    tm = [_two_j(m, "m") for m in (m1, m2, m3)]
    for j, m in zip(tj, tm):
        if (j + m) % 2 != 0:
            raise InvalidQuantumNumberError(
                f"j={j / 2} and m={m / 2} differ in integrality"
            )
        if abs(m) > j:
            raise InvalidQuantumNumberError(f"|m|={abs(m) / 2} exceeds j={j / 2}")
    return _wigner_3j_doubled(*tj, *tm)


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """<j1 m1 j2 m2 | j m> via the 3-j symbol."""
    if m1 + m2 != m:
        return 0.0
    phase = (-1.0) ** round(j1 - j2 + m)
    return phase * math.sqrt(2 * j + 1) * wigner_3j(j1, j2, j, m1, m2, -m)


@lru_cache(maxsize=None)
def reduced_ck(l, k, lp) -> float:
    """Reduced matrix element <l || C^k || l'> of the spherical tensor C^k.

    Zero unless l + k + l' is even and the triangle rule holds.
    """
    return (
        (-1.0) ** l
        * math.sqrt((2 * l + 1) * (2 * lp + 1))
        * wigner_3j(l, k, lp, 0, 0, 0)
    )


def csf_expand(n1, l1, n2, l2, L, ML, S, MS):
    """Expand a coupled two-electron CSF into Slater determinants.

    Returns a list of (m, mp, ms, msp, coefficient) where each entry
    multiplies the normalized determinant built from spin-orbitals
    (n1 l1 m ms) and (n2 l2 mp msp), the first orbital occupying the first
    determinant column.  Coefficients follow

        (-1)^(l2 - l1) * sqrt((2S+1)(2L+1))
        * (l1 l2 L; m mp -ML) * (1/2 1/2 S; ms msp -MS).

    Determinants are canonicalized (duplicate spin-orbital orderings merged
    with the antisymmetry sign; vanishing determinants removed).  For
    distinct orbitals the raw expansion is already normalized; for a
    same-orbital pair the degenerate determinants collapse and the surviving
    coefficients are renormalized to unit total weight (empty list when the
    coupling is Pauli-forbidden).
    """
    if not (abs(l1 - l2) <= L <= l1 + l2):
        raise InvalidCouplingError(f"({l1},{l2}) cannot couple to L={L}")
    if S not in (0, 1):
        raise InvalidCouplingError(f"two-electron spin S={S} must be 0 or 1")
    pref = (-1.0) ** abs(l2 - l1) * math.sqrt((2 * S + 1) * (2 * L + 1))
    same = (n1, l1) == (n2, l2)
    acc = {}
    for m in range(-l1, l1 + 1):
        mp = ML - m
        if abs(mp) > l2:
            continue
        w_orb = wigner_3j(l1, l2, L, m, mp, -ML)
        if w_orb == 0.0:
            continue
        for tms in (-1, 1):
            tmsp = 2 * MS - tms
            if abs(tmsp) > 1:
                continue
            ms, msp = tms / 2.0, tmsp / 2.0
            w_spin = wigner_3j(0.5, 0.5, S, ms, msp, -MS)
            if w_spin == 0.0:
                continue
            coeff = pref * w_orb * w_spin
            key = (m, mp, ms, msp)
            if same:
                if (m, ms) == (mp, msp):
                    continue  # determinant with a repeated spin-orbital
                swapped = (mp, m, msp, ms)
                if swapped in acc:
                    acc[swapped] -= coeff  # phi(a,b) = -phi(b,a)
                    continue
            acc[key] = acc.get(key, 0.0) + coeff
    acc = {key: c for key, c in acc.items() if abs(c) > 1e-14}
    norm = math.sqrt(sum(c * c for c in acc.values()))
    if not acc:
        return []
    if same:
        acc = {key: c / norm for key, c in acc.items()}
    return [(m, mp, ms, msp, c) for (m, mp, ms, msp), c in acc.items()]
