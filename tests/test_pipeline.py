"""Pipeline orchestration: configs, solves, convergence grids, scans."""
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helike import ci, pipeline
from helike.errors import InvalidParameterError
from helike.pipeline import (
    SCAN_DEFAULTS,
    RunConfig,
    build_context,
    default_box_radius,
    default_scan_charges,
    parse_state,
    run_convergence,
    run_solve,
    run_zscan,
    solve_in_context,
)
from helike.slater import SlaterIntegralTable

from helpers import count_interior_extrema


def test_parse_state():
    assert parse_state("1s2s-3S") == ((1, 2), 1)
    assert parse_state("1s2s-1S") == ((1, 2), 0)
    assert parse_state("1s2s") == ((1, 2), 0)
    assert parse_state("ground") == ((1, 1), 0)
    assert parse_state("1s3s^triplet") == ((1, 3), 1)
    assert parse_state("2s1s-3S") == ((1, 2), 1)
    assert parse_state("1s2") == ((1, 1), 0)
    with pytest.raises(InvalidParameterError):
        parse_state("1s1s-3S")
    with pytest.raises(InvalidParameterError):
        parse_state("1s2s-5S")
    with pytest.raises(InvalidParameterError):
        parse_state("1s2p")
    with pytest.raises(InvalidParameterError):
        parse_state("0s1s")


def test_box_radius_policy():
    assert_allclose(default_box_radius(2.0), 60.0)
    assert_allclose(default_box_radius(100.0), 1.2)
    # continuous across the Z = 2 switch and growing toward Z = 1
    assert_allclose(default_box_radius(2.0 + 1e-12),
                    default_box_radius(2.0 - 1e-12), rtol=1e-6)
    assert default_box_radius(1.1) > default_box_radius(1.5) > \
        default_box_radius(2.0)
    assert default_box_radius(1.0) == 1200.0
    with pytest.raises(InvalidParameterError):
        default_box_radius(0.0)


def test_config_resolution_and_validation():
    config = RunConfig(z=2.0, n_max=15).resolve()
    assert config.n_splines == 19
    assert config.r_max == 60.0
    # the resolved basis: order + 1 quadrature points in each of its cells
    basis = build_context(config, states=()).orbitals.basis
    assert basis.n_splines == 19 and basis.r_max == 60.0
    assert np.array_equal(np.bincount(basis.quad_cell),
                          np.full(basis.n_cells, config.order + 1))
    # the basis is a policy of (n_max, r_max), read but never set
    assert (config.order, config.gamma) == (7, 6.0)
    with pytest.raises(TypeError):
        RunConfig(order=7)
    RunConfig(z=2.0).resolve()
    with pytest.raises(InvalidParameterError):
        RunConfig(z=0.5).resolve()
    with pytest.raises(InvalidParameterError):
        RunConfig(l_max=5, n_max=4).resolve()
    with pytest.raises(InvalidParameterError):
        RunConfig(state="2p3p").resolve()
    # checked before the box policy sees them
    for bad in ({"z": math.inf}, {"z": math.nan}, {"r_max": 0.0},
                {"r_max": -5.0}, {"r_max": math.inf}, {"r_max": math.nan}):
        with pytest.raises(InvalidParameterError):
            RunConfig(**bad).resolve()


def test_run_solve_helium_ground():
    report = run_solve(RunConfig(z=2.0, state="ground", l_max=2, n_max=15))
    assert abs(report.energy - (-2.9026)) < 1e-3
    assert abs(report.s_linear - 0.0161) < 1e-3
    assert report.selection == "overlap"
    assert not report.ambiguous
    assert report.dominant == "1s1s"
    assert report.xi_polarized is None
    assert_allclose(report.s_von_neumann_nats,
                    report.s_von_neumann * np.log(2.0))
    assert_allclose(report.xi_sz0, report.s_linear, atol=1e-12)


def test_run_solve_triplet_spin_cases():
    report = run_solve(RunConfig(z=2.0, state="1s2s-3S", l_max=1, n_max=10))
    purity = 1.0 - report.s_linear
    assert_allclose(report.xi_sz0, 1.0 - purity)
    assert_allclose(report.xi_polarized, 1.0 - 2.0 * purity)
    assert report.s_linear >= 0.5 - 1e-12


def test_run_convergence_properties():
    result = run_convergence(RunConfig(z=2.0, state="ground"),
                             [0, 1, 2], [8, 12])
    table = {(r.l_max, r.n_max): r for r in result.rows}
    assert len(table) == 6
    # variational improvement along both truncation axes
    assert table[(1, 12)].energy < table[(0, 12)].energy
    assert table[(2, 12)].energy < table[(1, 12)].energy
    assert table[(1, 12)].energy < table[(1, 8)].energy
    assert result.config.l_max == 2 and result.config.n_max == 12
    with pytest.raises(InvalidParameterError):
        run_convergence(RunConfig(z=2.0, state="ground"), [-1, 1], [8])


def test_run_convergence_triplet_bound():
    result = run_convergence(RunConfig(z=2.0, state="1s2s-3S"),
                             [0, 1], [6, 10])
    assert result.rows
    for row in result.rows:
        assert row.s_linear >= 0.5 - 1e-12
    # a cell too small for the target pair is skipped for either spin
    cells = [[(r.l_max, r.n_max) for r in run_convergence(
        RunConfig(z=2.0, state=f"1s5s-{term}"), [0, 1], [3, 8]).rows]
        for term in ("1S", "3S")]
    assert cells[0] == cells[1] == [(0, 8), (1, 8)]


def test_run_convergence_caps_basis_at_largest_cell():
    # l = 3 has no cell with n_max <= 3, so the shared basis stops at l = 2
    # and every other cell is the one an l <= 2 table computes
    config = RunConfig(z=2.0, state="ground")
    result = run_convergence(config, [0, 1, 2, 3], [2, 3])
    assert [(r.l_max, r.n_max) for r in result.rows] == [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert result.config.l_max == 2
    reference = run_convergence(config, [0, 1, 2], [2, 3])
    assert repr(result.rows) == repr(reference.rows)
    with pytest.raises(InvalidParameterError):
        run_convergence(config, [5], [3])


def test_convergence_basis_stops_at_largest_kept_l(monkeypatch):
    # l = 9 has no cell below n_max = 6, and l = 5 none below n_max = 3:
    # the shared basis and the reported l_max stop at the largest l left
    sizes = []
    assemble = pipeline.assemble_hamiltonian

    def recording_assemble(lists, *args):
        sizes.extend(len(c) for c in lists)
        return assemble(lists, *args)

    monkeypatch.setattr(pipeline, "assemble_hamiltonian", recording_assemble)
    config = RunConfig(z=2.0, state="ground")
    for l_values, n_max, l_max in (([0, 1, 9], 6, 1), ([0, 5], 3, 0)):
        result = run_convergence(config, l_values, [n_max])
        assert result.config.l_max == l_max
        assert sizes.pop() == len(ci.build_config_list(l_max, n_max, 0))


def test_convergence_cells_match_submatrix_solves(monkeypatch):
    """Each cell equals a solve of its own copied submatrix of H.

    The axes come unsorted and with a repeat, and the table skips the
    cells with n_max <= l_max.  The matrices handed to lowest_states are
    recorded: every one is a view of the assembled H, which the table
    overwrites as it compacts its columns, so the oracle reads a copy.
    """
    assembled, copies, solved = [], [], []
    assemble = pipeline.assemble_hamiltonian
    lowest = pipeline.lowest_states

    def recording_assemble(*args):
        Hs = assemble(*args)
        assembled.extend(Hs)
        copies.extend(H.copy() for H in Hs)
        return Hs

    def recording_lowest(H, configs, pairs):
        solved.append((configs.l_max, configs.n_max, H))
        return lowest(H, configs, pairs)

    monkeypatch.setattr(pipeline, "assemble_hamiltonian", recording_assemble)
    monkeypatch.setattr(pipeline, "lowest_states", recording_lowest)
    config = RunConfig(z=2.0, state="1s2s-3S")
    table = run_convergence(config, [2, 0, 1, 1], [8, 2, 5])
    got = [(r.l_max, r.n_max, r.energy, r.s_linear, r.s_von_neumann)
           for r in table.rows]

    (H,) = copies
    pair, spin = parse_state(config.state)
    cfgs = ci.build_config_list(2, 8, spin)
    want = []
    for l_cut in (0, 1, 2):
        for n_cut in (2, 5, 8):
            if n_cut <= l_cut:
                continue
            keep = np.flatnonzero((cfgs.l <= l_cut) & (cfgs.n2 <= n_cut))
            sub = cfgs.take(keep, l_cut, n_cut)
            (state,) = lowest(H[np.ix_(keep, keep)], sub, [pair])
            rdm = pipeline.state_spectrum(state, sub)
            want.append((l_cut, n_cut, state.energy,
                         pipeline.linear_entropy(rdm),
                         pipeline.von_neumann_entropy(rdm)))
    assert [(l, n) for l, n, *_ in got] == [
        (0, 2), (0, 5), (0, 8), (1, 2), (1, 5), (1, 8), (2, 5), (2, 8)]
    assert got == want
    assert len(solved) == len(want)
    for l_cut, n_cut, M in solved:
        assert np.shares_memory(M, assembled[0]), (l_cut, n_cut)


def test_convergence_cell_lists_are_built_lists(monkeypatch):
    """Each cell's take() equals build_config_list of its cut, row for row.

    The table solves leading views of its columns, which is right only if
    the rows with l <= l_cut and n2 <= n_cut are, in order, the whole
    (l_cut, n_cut) list.
    """
    cells = []
    lowest = pipeline.lowest_states

    def recording_lowest(H, configs, pairs):
        cells.append(configs)
        return lowest(H, configs, pairs)

    monkeypatch.setattr(pipeline, "lowest_states", recording_lowest)
    for state, l_values, n_values in (("ground", [0, 1, 2, 3], [4, 6, 9]),
                                      ("1s2s-3S", [2, 0, 1], [8, 2, 5])):
        cells.clear()
        run_convergence(RunConfig(z=2.0, state=state), l_values, n_values)
        assert len(cells) == sum(n > l for l in l_values for n in n_values
                                 if n >= parse_state(state)[0][1])
        for got in cells:
            want = ci.build_config_list(got.l_max, got.n_max, got.S)
            assert got.S == parse_state(state)[1]
            for name in ("l", "n1", "n2"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


def test_convergence_solve_loop_copies_no_column(monkeypatch):
    """After the assembly the table allocates less than one column's H.

    At the n_max = 20 column of this table a gather of its rows of H
    would alone cost 8*m^2 bytes above what the assembly left behind.
    """
    after = []
    assemble = pipeline.assemble_hamiltonian

    def marking_assemble(*args):
        Hs = assemble(*args)
        after.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return Hs

    monkeypatch.setattr(pipeline, "assemble_hamiltonian", marking_assemble)
    tracemalloc.start()
    try:
        run_convergence(RunConfig(z=2.0, state="ground"), [0, 1, 2],
                        [15, 20, 25])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = np.count_nonzero(ci.build_config_list(2, 25, 0).n2 <= 20)
    assert peak - after[0] < 8 * m * m


def test_lowest_root_solves_match_full_eigh(monkeypatch):
    """solve_in_context and run_convergence agree with full-eigh solves.

    The reference run replaces ci.davidson with the full eigh, so each of
    its solves is complete.  build_context solves each spin in one
    lowest_states call: the singlet for ground and 1s2s 1S, then the
    triplet.
    """
    solves = []   # per lowest_states call, its diagonalize calls
    diagonalize, lowest = pipeline.diagonalize, pipeline.lowest_states

    def recording(H, top=None):
        spectrum = diagonalize(H, top)
        solves[-1].append((top, spectrum))
        return spectrum

    def per_spin(H, configs, pairs):
        solves.append([])
        return lowest(H, configs, pairs)

    monkeypatch.setattr(pipeline, "diagonalize", recording)
    monkeypatch.setattr(pipeline, "lowest_states", per_spin)

    def outcomes():
        out, contexts = {}, {}
        for z in (1.0, 2.0):
            for base in ({"l_max": 3, "n_max": 25}, SCAN_DEFAULTS):
                solves.clear()
                ctx = build_context(RunConfig(z=z, **base))
                contexts[z, base["n_max"]] = list(solves)
                for state in ("ground", "1s2s-1S", "1s2s-3S"):
                    r = solve_in_context(ctx, state)
                    out[z, base["n_max"], state] = (
                        r.energy, r.s_linear, r.s_von_neumann, r.selection,
                        r.ambiguous)
            for state in ("1s2s-1S", "1s2s-3S"):
                table = run_convergence(RunConfig(z=z, state=state),
                                        [2, 3], [15, 25])
                out[z, state] = [(r.l_max, r.n_max, r.energy, r.s_linear,
                                  r.s_von_neumann) for r in table.rows]
        return out, contexts

    lowest_roots, contexts = outcomes()
    monkeypatch.setattr(ci, "davidson",
                        lambda H, top: ci.Spectrum(*np.linalg.eigh(H)))
    full, _ = outcomes()
    assert lowest_roots.keys() == full.keys()
    for key, got in lowest_roots.items():
        want = full[key]
        if isinstance(got, list):   # convergence cells
            assert [g[:2] for g in got] == [w[:2] for w in want]
            assert_allclose([g[2:] for g in got], [w[2:] for w in want],
                            rtol=1e-10, atol=1e-10)
        else:
            assert got[3:] == want[3:], key
            assert_allclose(got[:3], want[:3], rtol=1e-10, atol=1e-10)
    # at l3,n25 each spin's first rung solves roots 0..max(n2) - S: 0..2
    # for the singlet's ground and 1s2s 1S, 0..1 for the triplet.  At
    # Z = 1 it cannot prove the 1s2s picks, and each spin adds one
    # complete eigh
    for z, eigh in ((2.0, []), (1.0, [None])):
        assert [[top for top, _ in spin] for spin in contexts[z, 25]] == \
            [[2] + eigh, [1] + eigh]
    # at Z = 2 one converged Davidson solve per spin proves every pick;
    # davidson's own eigh fallback would return a complete spectrum
    assert not any(spectrum.complete
                   for spin in contexts[2.0, 25] for _, spectrum in spin)


def test_run_zscan_rows_and_failures(monkeypatch):
    scan = run_zscan(charges=[1.5, 2.0], states=["1s2s-3S"])
    assert [r.z for r in scan.rows] == [1.5, 2.0]
    assert scan.complete
    inv_z, s_l, s_vn = scan.series("1s2s-3S")
    assert np.all(np.diff(inv_z) > 0)
    assert np.all(s_l >= 0.5)
    # an empty list is an error, not the default grid or states
    with pytest.raises(InvalidParameterError):
        run_zscan(charges=[])
    with pytest.raises(InvalidParameterError):
        run_zscan(charges=[2.0], states=[])
    # a bad charge is recorded, not fatal
    scan = run_zscan(charges=[0.5, 2.0], states=["1s2s-3S"])
    assert not scan.complete
    assert len(scan.rows) == 1 and len(scan.failures) == 1
    # a failed context costs one failure per state; each charge builds one
    # context and solves every state in it
    built = []

    def counting_build(config, states=("ground", "1s2s-1S", "1s2s-3S"),
                       keep=None):
        built.append(config.z)
        return build_context(config, states, keep)

    monkeypatch.setattr(pipeline, "build_context", counting_build)
    states = ["1s2s-1S", "1s2s-3S"]
    scan = run_zscan(charges=[0.5, 2.0], states=states)
    assert built == [0.5, 2.0]
    assert [(z, s) for z, s, _ in scan.failures] == [(0.5, s) for s in states]
    assert scan.failures[0][2] == scan.failures[1][2]
    assert len(scan.rows) == len(states)
    ctx = build_context(RunConfig(z=2.0, **SCAN_DEFAULTS))
    for row, s in zip(scan.rows, states):
        report = solve_in_context(ctx, s)
        assert row.state == s
        assert (row.energy, row.s_linear, row.s_von_neumann,
                row.dominant_weight, row.r_max, row.gamma, row.selection) == \
            (report.energy, report.s_linear, report.s_von_neumann,
             report.dominant_weight, report.config.r_max,
             report.config.gamma, report.selection)


# the benchmark's quarter of the default grid; Z = 2, 5, 25 and 100 share
# one basis in rho = Z r
SHARING_CHARGES = [1.0, 1.05, 1.2, 1.5, 2.0, 5.0, 25.0, 100.0]


def test_zscan_rows_match_per_charge_contexts():
    """Rescaled charges give the rows of their own contexts."""
    states = ["1s2s-1S", "1s2s-3S"]
    scan = run_zscan(charges=SHARING_CHARGES, states=states)
    assert scan.complete
    assert [(r.z, r.state) for r in scan.rows] == \
        [(z, s) for z in SHARING_CHARGES for s in states]
    for row in scan.rows:
        ctx = build_context(RunConfig(z=row.z, **SCAN_DEFAULTS), states)
        want = solve_in_context(ctx, row.state)
        assert_allclose(row.energy, want.energy, rtol=1e-13, atol=0)
        assert_allclose([row.s_linear, row.s_von_neumann,
                         row.dominant_weight],
                        [want.s_linear, want.s_von_neumann,
                         want.dominant_weight], rtol=0, atol=1e-13)
        assert row.selection == want.selection
        assert (row.r_max, row.gamma) == \
            (ctx.config.r_max, ctx.config.gamma)


def test_zscan_assembles_once_per_scaled_basis(monkeypatch):
    """Only adjacent charges sharing a basis in rho share one assembly.

    Z = 5, 25 and 100 rescale the previous charge's H, so the 8 charges
    assemble 5 times; a pinned r_max shares nothing.  When the first
    sharing charge fails, the next one assembles its own H and the scan
    fails as a scan that assembles every charge does.
    """
    assembled, solved = [], []
    assemble, orbital_set = (pipeline.assemble_hamiltonian,
                             pipeline.build_orbital_set)

    def recording_assemble(lists, table):
        assembled.append(table.orbitals.Z)
        if table.orbitals.Z == fail_at:
            raise MemoryError("no room for H")
        return assemble(lists, table)

    def recording_orbitals(basis, z, *args):
        solved.append(z)
        return orbital_set(basis, z, *args)

    monkeypatch.setattr(pipeline, "assemble_hamiltonian", recording_assemble)
    monkeypatch.setattr(pipeline, "build_orbital_set", recording_orbitals)
    fail_at = None
    reference = run_zscan(charges=SHARING_CHARGES)
    assert assembled == solved == SHARING_CHARGES[:5]
    assembled.clear()
    run_zscan(RunConfig(r_max=30.0, **SCAN_DEFAULTS),
              charges=SHARING_CHARGES)
    assert assembled == SHARING_CHARGES
    assembled.clear()
    fail_at = 2.0
    scan = run_zscan(charges=SHARING_CHARGES)
    assert assembled == SHARING_CHARGES[:6]
    states = ["1s2s-1S", "1s2s-3S"]
    assert [(z, s) for z, s, _ in scan.failures] == [(2.0, s) for s in states]
    assert scan.failures[0][2] == "MemoryError: no room for H"
    want = [r for r in reference.rows if r.z != 2.0]
    assert [(r.z, r.state, r.selection, r.r_max, r.gamma)
            for r in scan.rows] == \
        [(r.z, r.state, r.selection, r.r_max, r.gamma) for r in want]
    assert_allclose([r.energy for r in scan.rows],
                    [r.energy for r in want], rtol=1e-13, atol=0)


def test_zscan_assembles_beside_no_earlier_h(monkeypatch):
    """A scan keeps only the last solved charge's H.

    It keeps that H for a later charge to rescale and drops it before the
    next assembly.  Under the default box Z = 5, 25 and 100 rescale
    Z = 2's H; with a pinned r_max every charge assembles.  No H outlives
    the scan.
    """
    Hs, dead = [], []
    assemble = pipeline.assemble_hamiltonian

    def recording_assemble(lists, table):
        gc.collect()
        dead.append(all(H() is None for H in Hs))
        out = assemble(lists, table)
        Hs.extend(weakref.ref(H) for H in out)
        return out

    monkeypatch.setattr(pipeline, "assemble_hamiltonian", recording_assemble)
    for config, calls in ((None, 5),
                          (RunConfig(r_max=30.0, **SCAN_DEFAULTS), 8)):
        Hs.clear()
        dead.clear()
        assert run_zscan(config, charges=SHARING_CHARGES).complete
        assert dead == [True] * calls and len(Hs) == 2 * calls
        gc.collect()
        assert all(H() is None for H in Hs)


def test_zscan_out_of_basis_state_fails_alone():
    # 1s9s lies outside n_max = 5: it costs the 1s2s 1S row no root
    config = RunConfig(l_max=1, n_max=5)
    both = run_zscan(config, charges=[1.0, 2.0],
                     states=["1s2s-1S", "1s9s-1S"])
    alone = run_zscan(config, charges=[1.0, 2.0], states=["1s2s-1S"])
    assert both.rows == alone.rows and len(both.rows) == 2
    assert [(z, s) for z, s, _ in both.failures] == \
        [(1.0, "1s9s-1S"), (2.0, "1s9s-1S")]


def test_zscan_keeps_each_state_once():
    # a repeated spec keeps its first position and gives one row per charge
    config = RunConfig(l_max=1, n_max=5)
    scan = run_zscan(config, charges=[1.0, 2.0],
                     states=["1s2s-3S", "1s2s-1S", "1s2s-3S"])
    once = run_zscan(config, charges=[1.0, 2.0],
                     states=["1s2s-3S", "1s2s-1S"])
    assert scan.states == ["1s2s-3S", "1s2s-1S"]
    assert scan.rows == once.rows and len(scan.rows) == 4


def test_zscan_keeps_each_spelling_of_a_state_once():
    # three spellings of the 1s2s singlet: one row, in the first spelling
    config = RunConfig(l_max=1, n_max=5)
    scan = run_zscan(config, charges=[2.0],
                     states=["1s2s", "1s2s-1S", "2s1s-singlet"])
    once = run_zscan(config, charges=[2.0], states=["1s2s"])
    assert scan.states == ["1s2s"]
    assert scan.rows == once.rows and len(scan.rows) == 1


def test_context_computes_each_rank_block_once(monkeypatch):
    calls, assembled = [], []
    rank_block = SlaterIntegralTable.rank_block
    assemble = pipeline.assemble_hamiltonian

    def counting(self, k, la, lc):
        calls.append((k, la, lc))
        return rank_block(self, k, la, lc)

    def recording_assemble(lists, *args):
        assembled.append([c.S for c in lists])
        return assemble(lists, *args)

    monkeypatch.setattr(SlaterIntegralTable, "rank_block", counting)
    monkeypatch.setattr(pipeline, "assemble_hamiltonian", recording_assemble)
    ctx = build_context(RunConfig(z=2.0, **SCAN_DEFAULTS))
    for s in ("1s2s-1S", "1s2s-3S"):
        solve_in_context(ctx, s)
    # one call per distinct (k, la, lc) for l_max = 2, shared by both spins
    assert len(calls) == len(set(calls)) == 10
    assert assembled == [[0, 1]]
    # a single-state solve or scan never assembles the other spin
    run_solve(RunConfig(z=2.0, state="1s2s-1S", **SCAN_DEFAULTS))
    run_zscan(charges=[2.0], states=["1s2s-3S"])
    assert assembled == [[0, 1], [0], [1]]


def test_context_serves_its_states(monkeypatch):
    """One lowest_states call per spin, no H kept, only the given states.

    Equal states share the solve, a state the context does not serve
    raises at its own request, a context serving no state assembles and
    solves nothing, a failed solve fails the build and keeps no H, and a
    malformed state fails before any orbital solve.
    """
    Hs, solves = [], []
    assemble, lowest = pipeline.assemble_hamiltonian, pipeline.lowest_states

    def recording_assemble(lists, *args):
        out = assemble(lists, *args)
        Hs.extend(weakref.ref(H) for H in out)
        return out

    def recording_lowest(H, configs, pairs):
        solves.append((configs.S, list(pairs)))
        return lowest(H, configs, pairs)

    monkeypatch.setattr(pipeline, "assemble_hamiltonian", recording_assemble)
    monkeypatch.setattr(pipeline, "lowest_states", recording_lowest)
    config = RunConfig(z=2.0, l_max=1, n_max=8)
    # 1s9s lies outside n_max = 8, so the triplet is never assembled
    ctx = build_context(config, ["1s2s-1S", "2s1s-singlet", "ground",
                                 "1s9s-3S"])
    a, b, ground = (solve_in_context(ctx, s)
                    for s in ("1s2s-1S", "2s1s-singlet", "ground"))
    assert solves == [(0, [(1, 2), (1, 1)])]
    assert (a.energy, a.s_von_neumann) == (b.energy, b.s_von_neumann)
    assert ground.energy < a.energy
    assert len(Hs) == 1 and Hs[0]() is None
    for other in ("1s9s-3S", "1s2s-3S", "1s3s-1S"):
        with pytest.raises(InvalidParameterError):
            solve_in_context(ctx, other)
    # the convergence table's context: orbitals only
    assert build_context(config, ()).states == {}
    assert len(Hs) == 1 and len(solves) == 1

    def failing(H, configs, pairs):
        raise MemoryError("no room for the eigenvectors")

    monkeypatch.setattr(pipeline, "lowest_states", failing)
    with pytest.raises(MemoryError):
        build_context(config, ["1s2s-3S"])
    assert len(Hs) == 2 and Hs[1]() is None

    def no_orbitals(*args):
        raise AssertionError("orbitals solved before the states were parsed")

    monkeypatch.setattr(pipeline, "build_orbital_set", no_orbitals)
    with pytest.raises(InvalidParameterError):
        build_context(config, ["bogus"])


def test_context_keeps_no_slater_table(monkeypatch):
    """The R^k table and its orbital samples live only for the assembly.

    A context serving states builds one table and drops it before it
    returns; a context serving none builds no table at all.
    """
    tables = []

    def recording_table(orbitals):
        table = SlaterIntegralTable(orbitals)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(pipeline, "SlaterIntegralTable", recording_table)
    ctx = build_context(RunConfig(z=2, **SCAN_DEFAULTS),
                        ("1s2s-1S", "1s2s-3S"))
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None
    assert len(ctx.states) == 2
    build_context(RunConfig(z=2, **SCAN_DEFAULTS), ())
    assert len(tables) == 1


def test_default_scan_charges():
    charges = default_scan_charges()
    assert charges[0] == 1.0 and charges[-1] == 100.0
    assert len(charges) == len(set(charges))
    assert all(b > a for a, b in zip(charges, charges[1:]))


def test_count_interior_extrema():
    assert count_interior_extrema([1, 2, 3, 4]) == 0
    assert count_interior_extrema([1, 3, 2]) == 1
    assert count_interior_extrema([1, 3, 2, 4]) == 2
    # sub-tolerance wiggles on a plateau are ignored
    assert count_interior_extrema([0.0, 1.0, 1.0 + 5e-10, 1.0, 2.0],
                                  tol=1e-9) == 0
