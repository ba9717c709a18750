"""B-spline basis: values, derivatives, quadrature, and overlap."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import BSpline as ScipyBSpline

import helike
from helike.bspline import BSplineBasis, KnotSequence, make_knots
from helike.errors import InvalidParameterError

from helpers import integrate

RNG = np.random.default_rng(20240817)


def linear_knots(r_max, n_splines, order):
    """Clamped knots with evenly spaced interior: a second layout to test."""
    interior = np.linspace(0.0, r_max, n_splines - order + 2)[1:-1]
    return KnotSequence(np.concatenate(
        [np.zeros(order), interior, np.full(order, r_max)]), order)


@pytest.fixture(scope="module", params=["linear", "exponential"])
def basis(request):
    if request.param == "linear":
        return BSplineBasis(linear_knots(40.0, 14, 6))
    return BSplineBasis(make_knots(40.0, 14, 6, gamma=4.0))


def test_knot_structure(basis):
    t = basis.knots.points
    k = basis.knots.order
    assert_allclose(t[:k], 0.0)
    assert_allclose(t[-k:], 40.0)
    assert np.all(np.diff(t) >= 0)
    assert basis.knots.n_splines == len(t) - k


def test_partition_of_unity(basis):
    r = RNG.uniform(0.0, 40.0, size=200)
    B = basis.eval_matrix(r)
    assert_allclose(B.sum(axis=1), 1.0, atol=1e-13)
    assert np.all(B >= 0.0)


def test_matches_scipy(basis):
    t = basis.knots.points
    k = basis.knots.order
    # interior points, every breakpoint, and both ends (closed last cell)
    r = np.concatenate([RNG.uniform(0.0, 39.999, size=150),
                        basis.breakpoints, [0.0, basis.r_max]])
    B = basis.eval_matrix(r)
    dB = basis.deriv_matrix(r)
    for i in range(basis.knots.n_splines):
        coeffs = np.zeros(basis.knots.n_splines)
        coeffs[i] = 1.0
        ref = ScipyBSpline(t, coeffs, k - 1, extrapolate=False)
        assert_allclose(B[:, i], np.nan_to_num(ref(r)), atol=1e-12)
        assert_allclose(dB[:, i], np.nan_to_num(ref.derivative()(r)),
                        atol=1e-9)
    assert basis.eval_matrix([]).shape == (0, basis.knots.n_splines)


def test_local_support(basis):
    t = basis.knots.points
    k = basis.knots.order
    for i in (0, 5, basis.knots.n_splines - 1):
        lo, hi = t[i], t[i + k]
        outside = np.array([x for x in np.linspace(0, 40, 101)
                            if not lo <= x <= hi])
        if len(outside):
            vals = basis.eval_matrix(outside)[:, i]
            assert_allclose(vals, 0.0, atol=1e-14)


def test_quadrature_integrates_splines_exactly(basis):
    # product of two splines is piecewise polynomial of degree 2(k-1),
    # inside the per-cell Gauss rule's exactness range
    i, j = 3, 5
    w = basis.quad_weights
    Bi = basis.quad_values[:, i]
    Bj = basis.quad_values[:, j]
    direct = float(np.dot(w, Bi * Bj))
    fine = np.linspace(0.0, 40.0, 200001)
    vals = basis.eval_matrix(fine)
    ref = np.trapezoid(vals[:, i] * vals[:, j], fine)
    assert_allclose(direct, ref, atol=1e-8)


def test_overlap_matrix_properties(basis):
    S = basis.overlap_matrix()
    assert_allclose(S, S.T, atol=0.0)
    interior = S[1:-1, 1:-1]
    eigs = np.linalg.eigvalsh(interior)
    assert eigs.min() > 0.0
    # row sums integrate the partition of unity over each spline's support
    assert_allclose(S.sum(), 40.0, rtol=1e-12)


def test_integrate_polynomial(basis):
    val = integrate(basis, basis.quad_points**3)
    assert_allclose(val, 40.0**4 / 4.0, rtol=1e-12)


def test_exponential_grid_concentrates_inner_points():
    lin = linear_knots(40.0, 14, 6)
    exp = make_knots(40.0, 14, 6, gamma=6.0)
    assert exp.breakpoints[1] < lin.breakpoints[1]


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        make_knots(-1.0, 10, 6)
    with pytest.raises(InvalidParameterError):
        make_knots(10.0, 4, 6)   # fewer splines than the order
    with pytest.raises(InvalidParameterError):
        KnotSequence(np.array([0.0, 5.0, 10.0]), 1)   # no order-0 row
    with pytest.raises(InvalidParameterError):
        make_knots(10.0, 10, 6, gamma=0.0)   # 0/0 on the exponential grid
    for gamma in (-3.0, np.inf, np.nan):
        with pytest.raises(InvalidParameterError):
            make_knots(10.0, 10, 6, gamma=gamma)
    with pytest.raises(InvalidParameterError):
        KnotSequence(np.array([0.0, 0.0, np.nan, 10.0, 10.0]), 2)


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate would add about 0.4 s and 20 MiB to every start-up
    # (measured on a 2-vCPU host); evaluation is numpy only.  So is the
    # Davidson solver: scipy.sparse.linalg would add 0.39 s.  The oracle
    # modules and sympy stay out of production imports too.  No scipy
    # module loads at all: scipy bundles a second OpenBLAS whose thread
    # pool starves numpy's, and scipy.linalg alone takes about 0.4 s.
    src = str(Path(helike.__file__).resolve().parents[1])
    unloaded = ("scipy.interpolate", "scipy.sparse", "scipy.sparse.linalg",
                "helike.angular", "helike.crosscheck", "helike.selftest",
                "sympy")
    code = (f"import sys; sys.path.insert(0, {src!r}); import helike; "
            f"sys.exit(any(m in sys.modules for m in {unloaded!r}) or any("
            "m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], timeout=120)
    assert done.returncode == 0
