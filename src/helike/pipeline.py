"""High-level pipelines: single-state solves, convergence tables, Z scans.

A solve runs basis -> orbitals -> CI -> reduced density matrix -> entropies
for one (Z, state).  A context at one charge is built with its fixed set
of states already solved: one assembly computes each R^k block once for
every spin they need, and one lowest_states call per spin picks all of
that spin's states from the roots they need, diagonalizing in full only
when those cannot prove a pick; a request only looks its state up.
Convergence tables reuse one large Hamiltonian: each n_max column,
largest first, compacts its rows into the leading block of H's own
buffer, and each l_max cell of the column solves a leading view of that
block.  Z scans walk a charge grid down to the critical region
near Z = 1, enlarging the radial box as the outer electron delocalizes,
solve all states of one charge in one basis, and never let one failed
row abort the rest.  A charge whose basis in the scaled radius rho = Z r
is the last solved charge's (every Z >= 2 under the default box) builds
no basis and assembles nothing: it rescales that charge's kept H, as
H(Z) = s^2 D + s V with s = Z / Z0.  Every other charge builds its own
context.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .bspline import BSplineBasis, make_knots
from .ci import (
    ROW_BLOCK,
    CIState,
    ConfigList,
    build_config_list,
    assemble_hamiltonian,
    diagonalize,
    one_body_diagonal,
    rescale_hamiltonian,
    select_state,
)
from .entanglement import (
    RdmSpectrum,
    linear_entropy,
    spin_weighted_entanglement,
    state_spectrum,
    von_neumann_entropy,
)
from .errors import HelikeError, InvalidParameterError
from .orbitals import RadialOrbitalSet, build_orbital_set
from .slater import SlaterIntegralTable

DEFAULT_ORDER = 7
MAX_BOX_RADIUS = 1200.0
EXTRA_SPLINES = 4


def default_box_radius(z: float) -> float:
    """Radial box size adapted to the nuclear charge.

    Scales as 120/Z for well-bound systems; below Z = 2 the outer electron
    of the 1s2s states delocalizes as the binding E - (-Z^2/2) shrinks, and
    the box grows like 25/(Z-1), capped at 1200.  The formula is continuous
    in Z so scanned curves stay smooth.
    """
    if z <= 0:
        raise InvalidParameterError(f"Z must be positive, got {z}")
    if z >= 2.0:
        return 120.0 / z
    if z <= 1.0:
        return MAX_BOX_RADIUS
    return max(120.0 / z, min(25.0 / (z - 1.0), MAX_BOX_RADIUS))


def default_gamma(r_max: float) -> float:
    """Exponential-grid stiffness: denser inner knots for bigger boxes."""
    return 6.0 + max(0.0, math.log(r_max / 60.0))


def parse_state(text: str) -> tuple[tuple[int, int], int]:
    """Parse a state spec like '1s2s-3S' into ((n1, n2), S) with n1 <= n2.

    The label is an s-pair 'NsMs' in either order, or '1s2' / 'ground' for
    the 1s^2 pair; the optional suffix after '-', '_' or '^' picks the spin
    term (1S singlet, 3S triplet; default singlet).  A same-orbital triplet
    is Pauli-forbidden and rejected here.
    """
    text = text.strip()
    spin = 0
    for sep in ("-", "_", "^"):
        if sep in text:
            label, term = text.split(sep, 1)
            term = term.strip().upper()
            if term in ("1S", "SINGLET"):
                spin = 0
            elif term in ("3S", "TRIPLET"):
                spin = 1
            else:
                raise InvalidParameterError(f"unknown term symbol {term!r}")
            break
    else:
        label = text
    label = label.strip().lower()
    m = re.fullmatch(r"([1-9]\d*)s([1-9]\d*)s", label)
    if label in ("ground", "1s2"):
        pair = (1, 1)
    elif m:
        pair = tuple(sorted((int(m.group(1)), int(m.group(2)))))
    else:
        raise InvalidParameterError(f"cannot parse state label {label!r}")
    if spin == 1 and pair[0] == pair[1]:
        raise InvalidParameterError(
            f"{text!r}: same-orbital triplet is Pauli-forbidden"
        )
    return pair, spin


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one pipeline run; None means 'apply the default policy'.

    resolve() checks every field and fills every policy-dependent one, so
    the exact numbers used can be echoed into output metadata.
    """

    z: float = 2.0
    state: str = "1s2-1S"
    l_max: int = 3
    n_max: int = 25
    order: int = DEFAULT_ORDER
    n_splines: int | None = None     # default: max(n_max + 4, order + 1)
    r_max: float | None = None       # default: default_box_radius(z)
    gamma: float | None = None       # default: default_gamma(r_max)

    def resolve(self) -> "RunConfig":
        # before the box and gamma policies, which need these in range
        if not 1.0 <= self.z < math.inf:
            raise InvalidParameterError(
                f"Z must be finite and >= 1, got {self.z}")
        if self.r_max is not None and not 0.0 < self.r_max < math.inf:
            raise InvalidParameterError(
                f"r_max must be finite and positive, got {self.r_max}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise InvalidParameterError(
                f"gamma must be finite and positive, got {self.gamma}")
        r = self.r_max if self.r_max is not None else default_box_radius(self.z)
        res = replace(
            self,
            n_splines=(self.n_splines if self.n_splines is not None
                       else max(self.n_max + EXTRA_SPLINES, self.order + 1)),
            r_max=r,
            gamma=self.gamma if self.gamma is not None else default_gamma(r),
        )
        if not 0 <= res.l_max < res.n_max:
            raise InvalidParameterError(
                f"need 0 <= l_max < n_max, got ({res.l_max}, {res.n_max})"
            )
        if res.order < 3:
            raise InvalidParameterError(f"spline order {res.order} too small")
        if res.n_splines < res.n_max + 2:
            raise InvalidParameterError(
                f"{res.n_splines} splines cannot host {res.n_max} orbitals "
                "with boundary splines removed"
            )
        parse_state(res.state)
        return res


def lowest_states(H: np.ndarray, configs: ConfigList,
                  pairs: list[tuple[int, int]]) -> list[CIState]:
    """select_state's full-spectrum picks on pairs, from the lowest roots of H.

    The first rung solves roots 0..max(n2) - S through diagonalize
    (Davidson from DAVIDSON_MIN_DIM rows on, the complete eigh below): by
    the Hylleraas-Undheim-MacDonald bound a target's rank is n2 - 1 - S,
    so these hold every target's rank and one root above the highest,
    which sets davidson's Ritz gap.  When select_state cannot prove some
    pick from them, the second rung diagonalizes H in full and picks every
    pair again from it.  Every pair must lie inside configs.
    """
    spectrum = diagonalize(H, max(n2 for _, n2 in pairs) - configs.S)
    states = [select_state(spectrum, configs, pair) for pair in pairs]
    if None in states:
        spectrum = diagonalize(H)
        states = [select_state(spectrum, configs, pair) for pair in pairs]
    return states


@dataclass(frozen=True)
class PipelineContext:
    """One basis at one charge: its orbitals and the states it serves.

    Every state solved at this charge shares it, so a Z-scan solves its
    1s2s 1S and 3S terms in one basis.  states maps each served (pair,
    spin) to its configurations and its picked CIState; build_context
    fills it, and nothing is filled in later.  config.state is only the
    state the context was configured with.
    """

    config: RunConfig
    orbitals: RadialOrbitalSet
    states: dict[tuple[tuple[int, int], int], tuple[ConfigList, CIState]]


def build_context(config: RunConfig,
                  states=("ground", "1s2s-1S", "1s2s-3S"),
                  keep: list | None = None) -> PipelineContext:
    """Basis and orbitals for config, and every given state solved in them.

    config is resolved, and so checked, once.  The states are parsed
    before any orbital solve, so a malformed one is an
    InvalidParameterError here.  One assemble_hamiltonian call builds
    H for every spin the states inside the n_max basis need, so each R^k
    block is computed once per charge; its R^k table and orbital samples
    go when the assembly returns.  One lowest_states call per spin then
    picks all of that spin's states, and its H is dropped before the next
    spin is solved, unless keep is a list: each spin's (configs, H, one-body
    diagonal) is then appended to it, for a Z-scan's later charges to
    rescale.  A state outside the basis costs no table, assembly or root,
    and the context does not serve it.
    """
    res = config.resolve()
    targets = _targets(res, states)
    knots = make_knots(res.r_max, res.n_splines, res.order, gamma=res.gamma)
    basis = BSplineBasis(knots)
    orbitals = build_orbital_set(basis, res.z, res.n_max, res.l_max)
    served = {}
    if targets:
        lists = [build_config_list(res.l_max, res.n_max, s)
                 for s in sorted(targets)]
        Hs = assemble_hamiltonian(lists, SlaterIntegralTable(orbitals))
        for cfgs in lists:
            # popped, so unless kept this spin's H goes before the next
            # spin's solve
            H = Hs.pop(0)
            served.update(_picked(H, cfgs, targets[cfgs.S]))
            if keep is not None:
                keep.append((cfgs, H, one_body_diagonal(cfgs, orbitals)))
    return PipelineContext(config=res, orbitals=orbitals, states=served)


def _targets(res: RunConfig, states) -> dict[int, list[tuple[int, int]]]:
    """The distinct pairs of states inside res's n_max basis, per spin."""
    targets: dict[int, list[tuple[int, int]]] = {}
    for pair, spin in map(parse_state, states):
        if pair[1] <= res.n_max and pair not in targets.get(spin, []):
            targets.setdefault(spin, []).append(pair)
    return targets


def _picked(H: np.ndarray, cfgs: ConfigList, pairs):
    """{(pair, S): (cfgs, state)} for pairs, from one lowest_states call."""
    picks = lowest_states(H, cfgs, pairs)
    return {(p, cfgs.S): (cfgs, st) for p, st in zip(pairs, picks)}


@dataclass
class StateReport:
    """Everything computed for one (Z, state): energy, entropies, provenance."""

    config: RunConfig
    state: str
    spin: int
    energy: float
    threshold: float            # one-electron ionization threshold -Z^2/2
    s_linear: float
    s_von_neumann: float
    s_von_neumann_nats: float
    xi_sz0: float
    xi_polarized: float | None  # triplet S_z = +-1 case; None for singlets
    dominant: str
    dominant_weight: float
    selection: str              # 'overlap' or 'energy-order'
    ambiguous: bool
    spectrum: RdmSpectrum


def solve_in_context(ctx: PipelineContext, state_text: str) -> StateReport:
    return _report(ctx.config, ctx.states, state_text)


def _report(config: RunConfig, served, state_text: str) -> StateReport:
    """The report of state_text, looked up in the states served at config."""
    pair, spin = parse_state(state_text)
    if (pair, spin) not in served:
        raise InvalidParameterError(
            f"this context serves no {pair[0]}s{pair[1]}s S = {spin} "
            f"state inside its n_max = {config.n_max} basis")
    cfgs, state = served[pair, spin]
    rdm = state_spectrum(state, cfgs)
    s_l = linear_entropy(rdm)
    s_vn = von_neumann_entropy(rdm)
    purity = rdm.purity()
    z = config.z
    return StateReport(
        config=config,
        state=state_text,
        spin=spin,
        energy=state.energy,
        threshold=-0.5 * z * z,
        s_linear=s_l,
        s_von_neumann=s_vn,
        s_von_neumann_nats=s_vn * math.log(2.0),
        xi_sz0=spin_weighted_entanglement(purity, "sz0"),
        xi_polarized=(spin_weighted_entanglement(purity, "triplet_polarized")
                      if spin == 1 else None),
        dominant=state.dominant.label(),
        dominant_weight=state.dominant_weight,
        selection=state.selection,
        ambiguous=state.ambiguous,
        spectrum=rdm,
    )


def run_solve(config: RunConfig) -> StateReport:
    """Full pipeline for config.state, in a context serving only it."""
    return solve_in_context(build_context(config, (config.state,)),
                            config.state)


@dataclass
class ConvergenceRow:
    l_max: int
    n_max: int
    energy: float
    s_linear: float
    s_von_neumann: float


@dataclass
class ConvergenceResult:
    config: RunConfig
    rows: list[ConvergenceRow]


def run_convergence(config: RunConfig, l_values, n_values) -> ConvergenceResult:
    """Entropy/energy table over (l_max, n_max) truncations.

    One basis and one Hamiltonian are built at the largest truncation, so
    all cells share identical orbitals and radial integrals and differ only
    in the CI cut-off.  Configurations are ordered by l, then n1, then n2,
    so among the rows with n2 <= n_cut those with l <= l_cut come first.
    The n_cut columns run from the largest down: the largest is H itself,
    and each later one compacts its rows of the previous column into the
    leading m x m of H's own flat buffer, in place, so each cell solves a
    leading view of that one buffer and the table allocates no matrix
    beyond H.  H is overwritten on return.  Each cell goes through
    lowest_states: roots 0..n2 - S, and the full eigh only when they
    cannot prove the pick.  Cells with n_max <= l_max or n_max below the
    target's n2 are skipped, and the shared basis stops at the largest l
    of a cell that is left; it is an InvalidParameterError when no cell is
    left.  Rows come back ordered by l_max, then n_max.
    """
    l_values = sorted(set(int(v) for v in l_values))
    n_values = sorted(set(int(v) for v in n_values))
    if not l_values or not n_values or l_values[0] < 0:
        raise InvalidParameterError(
            f"need nonempty convergence axes and l >= 0, got {l_values}")
    pair, spin = parse_state(config.state)
    n_cuts = [n for n in n_values if n >= pair[1] and n > l_values[0]]
    if not n_cuts:
        raise InvalidParameterError(
            f"no cell of l {l_values} x n {n_values} has l_max < n_max "
            f"and n_max >= {pair[1]}, the target's n2")
    big = replace(config, l_max=max(l for l in l_values if l < n_cuts[-1]),
                  n_max=n_cuts[-1])
    ctx = build_context(big, ())   # its orbitals only
    cfgs = build_config_list(ctx.config.l_max, ctx.config.n_max, spin)
    (H,) = assemble_hamiltonian([cfgs], SlaterIntegralTable(ctx.orbitals))
    ls = np.array([c.l for c in cfgs])
    n2s = np.array([c.n2 for c in cfgs])
    flat, Hn = H.reshape(-1), H
    kept = np.arange(len(cfgs))   # the configurations of column Hn
    rows = []
    for n_cut in reversed(n_cuts):
        keep = np.flatnonzero(n2s[kept] <= n_cut)
        m = len(keep)
        if m < len(Hn):
            # keep is ascending, so row i of n x n Hn lands at flat offset
            # i*m, at most keep[i]*n; each chunk is gathered before it is
            # written, and chunk [i, i + t) writes below keep[i + t]*n,
            # where the first row not yet read starts: no source is
            # overwritten before it is read
            for i in range(0, m, ROW_BLOCK):
                chunk = keep[i:i + ROW_BLOCK]
                flat[i * m:(i + len(chunk)) * m] = \
                    Hn[np.ix_(chunk, keep)].ravel()
            Hn = flat[:m * m].reshape(m, m)
            kept = kept[keep]
        column = [cfgs[i] for i in kept]   # each cell's list is a prefix
        l_cuts = [l for l in l_values if l < n_cut]
        leads = np.searchsorted(ls[kept], l_cuts, side="right")
        for l_cut, lead in zip(l_cuts, leads):
            sub = ConfigList(l_max=l_cut, n_max=n_cut, S=spin,
                             configs=column[:lead])
            state = lowest_states(Hn[:lead, :lead], sub, [pair])[0]
            rdm = state_spectrum(state, sub)
            rows.append(ConvergenceRow(
                l_max=l_cut, n_max=n_cut, energy=state.energy,
                s_linear=linear_entropy(rdm),
                s_von_neumann=von_neumann_entropy(rdm),
            ))
    rows.sort(key=lambda r: (r.l_max, r.n_max))
    return ConvergenceResult(config=ctx.config, rows=rows)


def default_scan_charges() -> list[float]:
    """Charge grid from the high-Z limit down to the critical region."""
    zs = [float(z) for z in (100, 80, 50, 25, 15, 10, 5, 4, 3)]
    zs += [round(2.0 - 0.05 * i, 2) for i in range(20)]   # 2.00 .. 1.05
    zs += [1.02, 1.01, 1.0]
    return sorted(zs)


@dataclass
class ZScanRow:
    z: float
    inv_z: float
    state: str
    energy: float
    s_linear: float
    s_von_neumann: float
    dominant_weight: float
    r_max: float    # the box and its knot spacing follow Z, row by row
    gamma: float
    selection: str


@dataclass
class ZScanResult:
    config: RunConfig   # the base configuration, resolved at its own z
    states: list[str]
    rows: list[ZScanRow]
    failures: list[tuple[float, str, str]]   # (z, state, message)

    @property
    def complete(self) -> bool:
        return not self.failures

    def series(self, state: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(1/Z, S_L, S_vN) arrays for one state, ordered by increasing 1/Z."""
        rows = sorted((r for r in self.rows if r.state == state),
                      key=lambda r: r.inv_z)
        return (np.array([r.inv_z for r in rows]),
                np.array([r.s_linear for r in rows]),
                np.array([r.s_von_neumann for r in rows]))


SCAN_DEFAULTS = {"l_max": 2, "n_max": 15}
SCAN_ERRORS = (HelikeError, MemoryError, np.linalg.LinAlgError)


def _same_basis(a: RunConfig, b: RunConfig) -> bool:
    """Whether resolved configs a and b have one basis in rho = Z r.

    The knots are r_max times an exponential profile set by gamma,
    n_splines and order, and each cell holds order + 1 quadrature points.
    Z r_max is compared to rounding: under the default box Z * (120 / Z)
    is 120 within a few ulps.
    """
    return ((a.gamma, a.n_splines, a.order) == (b.gamma, b.n_splines, b.order)
            and math.isclose(a.z * a.r_max, b.z * b.r_max, rel_tol=1e-14))


def _rescaled(kept, s: float, targets) -> dict:
    """Each kept spin's H rescaled in place by s, and its targets picked.

    A function, so no loop variable keeps an H alive past the scan's
    next assembly.
    """
    served = {}
    for cfgs, H, D in kept:
        rescale_hamiltonian(H, D, s)
        served.update(_picked(H, cfgs, targets[cfgs.S]))
    return served


def run_zscan(config: RunConfig | None = None, charges=None,
              states=None) -> ZScanResult:
    """Solve the requested states on a charge grid; keep going on failures.

    The box radius follows default_box_radius(z) unless the config pins
    r_max.  The base config is resolved once before the first charge, so
    a bad r_max, gamma, n_splines, l_max, n_max or order is an
    InvalidParameterError for the scan; only z varies by charge.  The
    charges are walked once, upward.  A charge whose basis in rho = Z r is
    the last solved charge's (every Z >= 2 under the default box; none
    with a pinned r_max) builds no basis: it rescales that charge's kept
    H of each spin in place and solves its states there.  Every other
    charge drops the kept H and builds one context for all states, whose
    H it keeps in turn.  Each row reports its own charge's r_max and
    gamma; rows come back ordered by Z then state.  Failed (Z, state)
    pairs are collected in .failures instead of aborting the scan, one
    per state when the charge's solve fails, and the next charge then
    builds its own context.
    charges=None / states=None mean the default grid and both 1s2s terms;
    an empty list is an InvalidParameterError.  Specs that name one state
    ('1s2s', '1s2s-1S', '2s1s-singlet') are kept once, in the first one's
    spelling and position.
    """
    base = config or RunConfig(**SCAN_DEFAULTS)
    if charges is None:
        charges = default_scan_charges()
    charges = sorted(set(float(z) for z in charges))
    unique = {}
    for s in ["1s2s-1S", "1s2s-3S"] if states is None else states:
        # a malformed state fails the scan, not each charge
        unique.setdefault(parse_state(s), s)
    states = list(unique.values())
    if not charges or not states:
        raise InvalidParameterError("a scan needs at least one charge and "
                                    "one state")

    checked = base.resolve()   # only z varies by charge
    rows: list[ZScanRow] = []
    failures: list[tuple[float, str, str]] = []
    # the last solved charge's resolved config and its spins' (configs, H, D)
    last = kept = None
    for z in charges:
        config = replace(base, z=z)
        try:
            if last is not None and _same_basis(last, res := config.resolve()):
                served = _rescaled(kept, z / last.z, _targets(res, states))
            else:
                kept = []   # drops the last charge's H before this assembly
                ctx = build_context(config, states, keep=kept)
                res, served = ctx.config, ctx.states
        except SCAN_ERRORS as exc:
            last = kept = None
            message = f"{type(exc).__name__}: {exc}"
            failures += [(z, s, message) for s in states]
            continue
        last = res
        for s in states:
            try:
                report = _report(res, served, s)
                rows.append(ZScanRow(
                    z=z, inv_z=1.0 / z, state=s,
                    energy=report.energy,
                    s_linear=report.s_linear,
                    s_von_neumann=report.s_von_neumann,
                    dominant_weight=report.dominant_weight,
                    r_max=res.r_max,
                    gamma=res.gamma,
                    selection=report.selection,
                ))
            except SCAN_ERRORS as exc:
                failures.append((z, s, f"{type(exc).__name__}: {exc}"))
    rows.sort(key=lambda r: (r.z, r.state))
    return ZScanResult(config=checked, states=states,
                       rows=rows, failures=failures)
