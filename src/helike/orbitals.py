"""One-electron radial orbitals from the B-spline generalized eigenproblem.

The reduced radial equation for a hydrogen-like electron of charge Z and
angular momentum l,

    [-1/2 d^2/dr^2 + l(l+1)/(2 r^2) - Z/r] chi(r) = e chi(r),
    chi(0) = chi(R) = 0,

is discretized over the interior splines (first and last dropped to enforce
the boundary conditions) and solved as H c = e S c.  The returned set holds
the lowest n_max - l states per l, labeled n = l+1 .. n_max; the upper part
of each spectrum is the discretized continuum, kept as part of the CI basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bspline import BSplineBasis
from .errors import FactorizationError, InvalidParameterError

ORTHO_TOL = 1e-12


def radial_hamiltonian(basis: BSplineBasis, Z: float, l: int) -> np.ndarray:
    """One-electron Hamiltonian over the interior splines; exactly symmetric.

    H_ij = int [ 1/2 B'_i B'_j + (l(l+1)/(2 r^2) - Z/r) B_i B_j ] dr
    """
    if Z < 0:
        raise InvalidParameterError(f"Z must be non-negative, got {Z}")
    if l < 0:
        raise InvalidParameterError(f"l must be non-negative, got {l}")
    w = basis.quad_weights
    r = basis.quad_points
    B = basis.quad_values[:, 1:-1]
    dB = basis.quad_derivs[:, 1:-1]
    pot = 0.5 * l * (l + 1) / r**2 - Z / r
    H = 0.5 * (dB * w[:, None]).T @ dB + (B * (w * pot)[:, None]).T @ B
    return 0.5 * (H + H.T)


def interior_overlap(basis: BSplineBasis) -> np.ndarray:
    """Overlap matrix restricted to the interior spline set."""
    return basis.overlap_matrix()[1:-1, 1:-1]


@dataclass
class RadialOrbitals:
    """Orbitals chi_nl for one l: energies ascending, coefficients S-orthonormal."""

    l: int
    energies: np.ndarray          # shape (n_orb,)
    coefficients: np.ndarray      # shape (n_orb, n_interior)

    @property
    def n_orbitals(self) -> int:
        return len(self.energies)


@dataclass
class RadialOrbitalSet:
    """Orthonormal radial orbitals per l, sharing one B-spline basis."""

    Z: float
    basis: BSplineBasis
    per_l: dict[int, RadialOrbitals] = field(default_factory=dict)

    def orbitals(self, l: int) -> RadialOrbitals:
        try:
            return self.per_l[l]
        except KeyError:
            raise IndexError(f"no orbitals solved for l={l}") from None

    def energy(self, n: int, l: int) -> float:
        orb = self.orbitals(l)
        idx = n - l - 1
        if not 0 <= idx < orb.n_orbitals:
            raise IndexError(f"orbital n={n}, l={l} not available")
        return float(orb.energies[idx])

    def values_at(self, points) -> dict[int, np.ndarray]:
        """{l: chi_nl at points, shape (n_orb, len(points))} for every l.

        The B-spline values do not depend on l, so they are evaluated once.
        """
        B = self.basis.eval_matrix(points)[:, 1:-1]
        return {l: orb.coefficients @ B.T for l, orb in self.per_l.items()}


def solve_orbitals(basis: BSplineBasis, Z: float, l: int,
                   n_max: int) -> RadialOrbitals:
    """Lowest n_max - l eigenpairs of H c = e S c for one (Z, l).

    Cholesky reduction S = L L^T turns the pencil into the standard problem
    A y = e y with A = L^-1 H L^-T (symmetrized against rounding); its
    eigenvectors map back as c = L^-T y, which makes them S-orthonormal.
    """
    if n_max <= l:
        raise InvalidParameterError(f"n_max ({n_max}) must exceed l ({l})")
    H = radial_hamiltonian(basis, Z, l)
    S = interior_overlap(basis)
    n_int = H.shape[0]
    n_orb = n_max - l
    if n_orb > n_int:
        raise InvalidParameterError(
            f"basis supports at most {n_int} orbitals per l, need {n_orb}"
        )
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            "overlap matrix is not positive-definite"
        ) from exc
    A = np.linalg.solve(L, np.linalg.solve(L, H).T)
    eigval, y = np.linalg.eigh(0.5 * (A + A.T))
    coeffs = np.linalg.solve(L.T, y[:, :n_orb]).T.copy()
    # fix sign: orbital made positive at the innermost quadrature point,
    # i.e. positive as r -> 0+
    inner = basis.quad_values[0, 1:-1]
    for row in coeffs:
        if float(row @ inner) < 0.0:
            row *= -1.0
    return RadialOrbitals(l=l, energies=eigval[:n_orb], coefficients=coeffs)


def build_orbital_set(basis: BSplineBasis, Z: float, n_max: int,
                      l_max: int) -> RadialOrbitalSet:
    """Solve all l = 0 .. l_max on the shared basis."""
    out = RadialOrbitalSet(Z=Z, basis=basis)
    for l in range(l_max + 1):
        out.per_l[l] = solve_orbitals(basis, Z, l, n_max)
    return out


def hydrogenic_energy(Z: float, n: int) -> float:
    """Exact bound-state energy -Z^2/(2 n^2) in a.u."""
    return -Z * Z / (2.0 * n * n)
