"""Configuration interaction over B-spline orbitals for two-electron atoms.

Computes bound-state energies and electron-electron entanglement entropies
(von Neumann, linear, spin-weighted) of helium-like systems, including
scans of the nuclear charge down to the critical value Z = 1 where the
excited states dissolve into the continuum.
"""

from .bspline import BSplineBasis, KnotSequence, make_knots
from .ci import (
    CIState,
    ConfigList,
    Spectrum,
    assemble_hamiltonian,
    build_config_list,
    diagonalize,
    select_state,
)
from .entanglement import (
    RdmSpectrum,
    linear_entropy,
    spin_weighted_entanglement,
    state_spectrum,
    von_neumann_entropy,
)
from .errors import HelikeError
from .orbitals import RadialOrbitalSet, build_orbital_set, hydrogenic_energy
from .pipeline import (
    ConvergenceResult,
    RunConfig,
    StateReport,
    ZScanResult,
    default_box_radius,
    default_scan_charges,
    run_convergence,
    run_solve,
    run_zscan,
)
from .slater import SlaterIntegralTable

__version__ = "1.0.0"

__all__ = [
    "BSplineBasis",
    "CIState",
    "ConfigList",
    "ConvergenceResult",
    "HelikeError",
    "KnotSequence",
    "RadialOrbitalSet",
    "RdmSpectrum",
    "RunConfig",
    "SlaterIntegralTable",
    "Spectrum",
    "StateReport",
    "ZScanResult",
    "assemble_hamiltonian",
    "build_config_list",
    "build_orbital_set",
    "default_box_radius",
    "default_scan_charges",
    "diagonalize",
    "hydrogenic_energy",
    "linear_entropy",
    "make_knots",
    "run_convergence",
    "run_solve",
    "run_zscan",
    "select_state",
    "spin_weighted_entanglement",
    "state_spectrum",
    "von_neumann_entropy",
]
