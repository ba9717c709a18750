"""Configuration lists, CI Hamiltonian assembly, and state selection."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from helike import ci
from helike.bspline import BSplineBasis, make_knots
from helike.ci import (
    Configuration,
    Spectrum,
    assemble_hamiltonian,
    build_config_list,
    davidson,
    diagonalize,
    select_state,
)
from helike.crosscheck import hamiltonian_msum
from helike.errors import InconsistentInputError, InvalidParameterError
from helike.orbitals import build_orbital_set
from helike.pipeline import SCAN_DEFAULTS, RunConfig, build_context
from helike.slater import SUBCELL_POINTS, SlaterIntegralTable

@pytest.fixture(scope="module")
def toy():
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    return SlaterIntegralTable(build_orbital_set(basis, 2.0, 3, 1))


def test_reference_config_counts():
    assert len(build_config_list(6, 40, 0)) == 4935
    assert len(build_config_list(6, 40, 1)) == 4676


def test_config_ordering_and_pauli():
    singlets = build_config_list(1, 3, 0)
    triplets = build_config_list(1, 3, 1)
    assert singlets.configs[0] == Configuration(1, 1, 0)
    assert all(c.n1 < c.n2 for c in triplets)
    ls = [c.l for c in singlets]
    assert ls == sorted(ls)


def test_unsupported_symmetry():
    with pytest.raises(InvalidParameterError):
        build_config_list(2, 5, 2)
    with pytest.raises(InvalidParameterError):
        build_config_list(5, 3, 0)


def test_hamiltonian_vs_determinant_expansion(toy):
    # the m-summation oracle takes each rank separately; at l_max = 2 the
    # la = lc = 2 block folds ranks 0, 2 and 4 into one sum, and n_max = 4
    # adds the 3d4d triplet, whose exchange term enters with the minus sign
    basis = BSplineBasis(make_knots(30.0, 12, 7, gamma=5.0))
    d_toy = SlaterIntegralTable(build_orbital_set(basis, 2.0, 3, 2))
    d4_toy = SlaterIntegralTable(build_orbital_set(basis, 2.0, 4, 2))
    for slater, l_max, n_max in ((toy, 1, 3), (d_toy, 2, 3),
                                 (d4_toy, 2, 4)):
        for S in (0, 1):
            configs = build_config_list(l_max, n_max, S)
            (fast,) = assemble_hamiltonian([configs], slater)
            slow = hamiltonian_msum(configs, slater)
            assert_allclose(fast, slow, atol=1e-12)


def test_hamiltonian_symmetric_and_variational(toy):
    slater = toy
    configs = build_config_list(1, 3, 0)
    (H,) = assemble_hamiltonian([configs], slater)
    assert np.array_equal(H, H.T)
    spec = diagonalize(H)
    assert spec.complete and np.all(np.diff(spec.eigenvalues) >= 0)
    # ground eigenvalue below the lowest diagonal element
    assert spec.eigenvalues[0] < H.diagonal().min()
    # below the Davidson cut every top gives the complete eigh
    low = diagonalize(H, 2)
    assert low.complete and np.array_equal(low.eigenvalues, spec.eigenvalues)
    assert diagonalize(H, len(H) - 1).complete


def assemble_within(budget, lists, slater):
    """assemble_hamiltonian with ci.MEMORY_BUDGET_BYTES set to budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ci, "MEMORY_BUDGET_BYTES", budget)
        return assemble_hamiltonian(lists, slater)


def test_memory_budget(toy):
    slater = toy
    configs = build_config_list(1, 3, 0)
    with pytest.raises(MemoryError):
        assemble_within(8, [configs], slater)
    # room for H but not for H plus the table
    budget = 8 * len(configs) ** 2 + slater.nbytes - 1
    with pytest.raises(MemoryError):
        assemble_within(budget, [configs], slater)
    # room for the singlet build alone, but not for singlet plus triplet;
    # the R^k work counts too: the table's arrays (orbital samples on the
    # main grid, the local splines on the sub-cell nodes, each l's
    # coefficients on them, the kernel geometry on both grids and the
    # sub-cell nodes and weights), then the largest of three phases, with
    # n_orb^2 x Q pair arrays: the rank sum beside one rank's V, its pair
    # product or own-cell part, the Q x Q K and the own cell's O_k and
    # C_b O_k; U and W beside a band's two products and its direct and
    # exchange gathers and their offsets, with at most max(ROW_BLOCK / 2,
    # n_orb) rows each; a diagonal block's copied transpose
    n_orb = slater.orbitals.orbitals(0).n_orbitals
    n_cfg = configs.blocks()[0][0].stop
    nq, order = len(slater.r), slater.basis.order
    n_sub = 2 * SUBCELL_POINTS
    n_samples = n_orb + slater.orbitals.orbitals(1).n_orbitals
    table = (nq * n_samples + nq * n_sub * order
             + slater.basis.n_cells * n_samples * order
             + 2 * nq**2 + 4 * nq * n_sub)
    pairs = n_orb**2 * nq
    band = max(ci.ROW_BLOCK // 2, n_orb)
    phases = max(3 * pairs + nq**2 + nq * order * (order + n_orb),
                 2 * pairs + 2 * band * n_orb**2 + 3 * band * n_cfg,
                 n_cfg**2)
    alone = 8 * (len(configs) ** 2 + table + phases)
    triplets = build_config_list(1, 3, 1)
    with pytest.raises(MemoryError):
        assemble_within(alone, [configs, triplets], slater)
    assemble_within(alone, [configs], slater)


def test_memory_estimate_covers_traced_peak():
    # real assemblies: a budget one byte below the traced peak must fail.
    # l0,n40 has one rank per block; at l2,n25 up to three ranks are summed;
    # l4,n30 is the convergence table's singlet.  The table samples its
    # orbitals when it is built, so its build is traced too
    for l_max, n_max, spins in ((0, 40, (0,)), (2, 25, (0, 1)),
                                (4, 30, (0,))):
        ctx = build_context(RunConfig(z=2.0, l_max=l_max, n_max=n_max),
                            states=())
        lists = [build_config_list(l_max, n_max, S) for S in spins]
        tracemalloc.start()
        try:
            slater = SlaterIntegralTable(ctx.orbitals)
            assemble_hamiltonian(lists, slater)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with pytest.raises(MemoryError):
            assemble_within(peak - 1, lists, slater)


def _whole_block_hamiltonian(configs, slater):
    """H from each whole block G = (U W^T + W U^T) / 2, gathered with
    broadcast index arrays: the assembly before it went band by band."""
    blocks = configs.blocks()
    H = np.diag(ci.one_body_diagonal(configs, slater.orbitals))
    xsign = -1.0 if configs.S else 1.0
    for la, (rows, A, B) in blocks.items():
        for lc, (cols, C, D) in blocks.items():
            if lc < la or not len(A) or not len(C):
                continue
            U, W = slater.folded_block(
                [(k, ci.coupling_coefficient(la, lc, k))
                 for k in ci.multipole_ranks(la, lc)], la, lc)
            na = slater.orbitals.orbitals(la).n_orbitals
            nc = len(U) // na
            G = (0.5 * (U @ W.T + W @ U.T)).reshape(na, nc, na, nc)
            block = G[A[:, None], C, B[:, None], D]
            block += xsign * G[A[:, None], D, B[:, None], C]
            block *= (np.where(A == B, 1.0 / np.sqrt(2.0), 1.0)[:, None]
                      * np.where(C == D, 1.0 / np.sqrt(2.0), 1.0))
            if lc == la:
                H[rows, cols] += 0.5 * (block + block.T)
            else:
                H[rows, cols] += block
                H[cols, rows] += block.T
    return H


def test_banded_assembly_matches_whole_block():
    # l0,n40's one l block spans 14 bands of a, and every block of the
    # l4,n30 singlet several.  Each H is exactly symmetric
    # and within 1e-14 max|H| of whole-block products and gathers
    for l_max, n_max, spins in ((0, 40, (0, 1)), (4, 30, (0,))):
        ctx = build_context(RunConfig(z=2.0, l_max=l_max, n_max=n_max),
                            states=())
        slater = SlaterIntegralTable(ctx.orbitals)
        lists = [build_config_list(l_max, n_max, S) for S in spins]
        n0 = ctx.orbitals.orbitals(0).n_orbitals
        assert n0 > ci.ROW_BLOCK // (2 * n0)
        for configs, H in zip(lists, assemble_hamiltonian(lists, slater)):
            assert np.array_equal(H, H.T)
            want = _whole_block_hamiltonian(configs, slater)
            assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()


def test_assembly_holds_no_whole_block():
    # He l0,n40: one l = 0 block of pair products is 8 n0^4 bytes (19.5
    # MiB); the assembly's traced peak beyond H and the table stays below
    ctx = build_context(RunConfig(z=2.0, l_max=0, n_max=40), states=())
    n0 = ctx.orbitals.orbitals(0).n_orbitals
    tracemalloc.start()
    try:
        slater = SlaterIntegralTable(ctx.orbitals)
        (H,) = assemble_hamiltonian([build_config_list(0, 40, 0)], slater)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - H.nbytes - slater.nbytes < 8 * n0**4


def test_both_spins_in_one_call_match_single_spin(toy):
    slater = toy
    lists = [build_config_list(1, 3, S) for S in (0, 1)]
    both = assemble_hamiltonian(lists, slater)
    for configs, H in zip(lists, both):
        (alone,) = assemble_hamiltonian([configs], slater)
        assert np.array_equal(H, alone)
        assert_allclose(H, hamiltonian_msum(configs, slater),
                        atol=1e-12)
    for z in (1.0, 2.0):
        ctx = build_context(RunConfig(z=z, **SCAN_DEFAULTS), states=())
        slater = SlaterIntegralTable(ctx.orbitals)
        lists = [build_config_list(2, 15, S) for S in (0, 1)]
        both = assemble_hamiltonian(lists, slater)
        for configs, H in zip(lists, both):
            (alone,) = assemble_hamiltonian([configs], slater)
            assert np.array_equal(H, alone)


def test_rescaled_hamiltonian_matches_direct_assembly():
    """H(Z) from H(2) on the scan basis, which is fixed in rho = Z r.

    Under the default box every Z >= 2 has Z r_max = 120 and gamma = 6,
    so H(3) and H(100) of both spins follow from H(2) and its one-body
    diagonal, within 1e-14 max|H| of their own assembly.
    """
    lists = [build_config_list(2, 15, S) for S in (0, 1)]

    def assembled(z):
        ctx = build_context(RunConfig(z=z, **SCAN_DEFAULTS), states=())
        assert ctx.config.gamma == 6.0
        Hs = assemble_hamiltonian(lists, SlaterIntegralTable(ctx.orbitals))
        return [(H, ci.one_body_diagonal(c, ctx.orbitals))
                for c, H in zip(lists, Hs)]

    anchor = assembled(2.0)
    for z in (3.0, 100.0):
        for (H2, D2), (want, want_d) in zip(anchor, assembled(z)):
            H, D = H2.copy(), D2.copy()
            ci.rescale_hamiltonian(H, D, z / 2.0)
            scale = np.abs(want).max()
            assert np.abs(H - want).max() <= 1e-14 * scale, z
            assert np.abs(D - want_d).max() <= 1e-14 * scale, z
            assert np.array_equal(H, H.T)


def test_assembly_input_checks(toy):
    slater = toy
    with pytest.raises(InconsistentInputError):
        assemble_hamiltonian([], slater)
    with pytest.raises(InconsistentInputError):
        assemble_hamiltonian([build_config_list(1, 3, 0),
                              build_config_list(0, 3, 1)], slater)


def test_select_state(toy):
    slater = toy
    configs = build_config_list(1, 3, 0)
    spec = diagonalize(*assemble_hamiltonian([configs], slater))
    ground = select_state(spec, configs, (1, 1))
    assert ground.dominant == Configuration(1, 1, 0)
    assert ground.dominant_weight > 0.9
    assert not ground.ambiguous and ground.selection == "overlap"
    excited = select_state(spec, configs, (1, 2))
    assert excited.energy > ground.energy
    with pytest.raises(InvalidParameterError):
        select_state(spec, configs, (1, 9))


def test_select_state_triplet_rules(toy):
    slater = toy
    configs = build_config_list(1, 3, 1)
    spec = diagonalize(*assemble_hamiltonian([configs], slater))
    with pytest.raises(InvalidParameterError):
        select_state(spec, configs, (1, 1))
    state = select_state(spec, configs, (1, 2))
    assert state.S == 1


def test_select_state_energy_rank_fallback(toy):
    slater = toy
    for S, rank in ((0, 1), (1, 0)):
        configs = build_config_list(1, 3, S)
        spec = diagonalize(*assemble_hamiltonian([configs], slater))
        # spread every eigenvector evenly so no overlap reaches 0.5
        n = len(configs)
        spec.eigenvectors = np.full((n, n), 1.0 / np.sqrt(n))
        state = select_state(spec, configs, (1, 2))
        assert state.ambiguous and state.selection == "energy-order"
        assert state.energy == spec.eigenvalues[rank]
        # the rank rule covers 1sns targets only
        other = select_state(spec, configs, (2, 3))
        assert other.ambiguous and other.selection == "overlap"
    # two computed roots weigh 0.3 each on 1s3s: no computed weight clears
    # 1/2 plus the margin, so the partial spectrum leaves the pick undecided
    configs = build_config_list(1, 3, 0)
    vecs = np.zeros((len(configs), 2))
    vecs[configs.index(1, 3, 0)] = np.sqrt(0.3)
    assert select_state(Spectrum(np.zeros(2), vecs), configs, (1, 3)) is None


def _truncation_verdicts(spec, configs, pair):
    """select_state on the first k roots of spec for every k, against all.

    Returns the k at which the pick was deferred; every other k must give
    exactly the full-spectrum state.
    """
    full = select_state(spec, configs, pair)
    deferred = []
    for k in range(1, len(configs) + 1):
        part = Spectrum(spec.eigenvalues[:k], spec.eigenvectors[:, :k])
        state = select_state(part, configs, pair)
        if state is None:
            deferred.append(k)
            continue
        assert (state.energy, state.selection, state.ambiguous) == \
            (full.energy, full.selection, full.ambiguous), (pair, k)
        assert np.array_equal(state.coefficients, full.coefficients)
    assert len(configs) not in deferred
    return deferred


def test_partial_spectrum_pick_is_proven_or_deferred(toy):
    slater = toy
    for S in (0, 1):
        configs = build_config_list(1, 3, S)
        spec = diagonalize(*assemble_hamiltonian([configs], slater))
        for pair in [(1, 1), (1, 2), (1, 3), (2, 3)][S:]:
            _truncation_verdicts(spec, configs, pair)
    for z in (1.0, 2.0):
        ctx = build_context(RunConfig(z=z, **SCAN_DEFAULTS), states=())
        for S in (0, 1):
            configs = build_config_list(2, 15, S)
            spec = diagonalize(*assemble_hamiltonian(
                [configs], SlaterIntegralTable(ctx.orbitals)))
            for pair in [(1, 1), (1, 2), (1, 3), (2, 3)][S:]:
                deferred = _truncation_verdicts(spec, configs, pair)
                if (z, S, pair) == (1.0, 1, (1, 2)):
                    # the overlap pick is root 10 (weight 0.616): deferred
                    # until root 10 is computed, proven from then on
                    state = select_state(spec, configs, pair)
                    assert state.energy == spec.eigenvalues[10]
                    assert state.selection == "overlap"
                    assert deferred == list(range(1, 11))


def test_iterative_spectrum_defers_what_it_cannot_prove():
    configs = build_config_list(1, 3, 0)
    # three roots each with 1s2s weight 0.3: no computed weight passes 0.5,
    # so the energy-order pick waits for the full spectrum
    vecs = np.zeros((len(configs), 3))
    vecs[configs.index(1, 2, 0)] = np.sqrt(0.3)
    assert select_state(Spectrum(np.arange(3.0), vecs), configs,
                        (1, 2)) is None
    # an overlap pick (weight 0.9, runner-up 0.05, rest 0.05) keeps the
    # certificate while 2 ritz_error leaves room below |0.9 - 0.5|
    vecs[configs.index(1, 2, 0)] = np.sqrt([0.9, 0.05, 0.0])
    for error, proven in ((0.0, True), (0.1, True), (0.2, False)):
        spec = Spectrum(np.arange(3.0), vecs, ritz_error=error)
        assert (select_state(spec, configs, (1, 2)) is not None) == proven
    # two computed weights closer than the margin leave the pick unproven
    vecs[configs.index(2, 3, 0)] = np.sqrt([0.45, 0.45 - 1e-9, 0.1])
    assert select_state(Spectrum(np.arange(3.0), vecs), configs,
                        (2, 3)) is None


def test_sign_fix_matches_column_loop():
    def column_loop(vecs):
        for i in range(vecs.shape[1]):
            j = int(np.argmax(np.abs(vecs[:, i])))
            if vecs[j, i] < 0:
                vecs[:, i] *= -1.0
        return vecs

    rng = np.random.default_rng(7)
    A = rng.standard_normal((60, 60))
    # small integers tie +m with -m in either order; zero and -0.0 columns
    ties = rng.integers(-2, 3, size=(6, 200)).astype(float)
    ties[:, :4] = 0.0
    ties[1, 2:4] = -0.0
    for vecs in (np.linalg.eigh(A + A.T)[1], ties, np.asfortranarray(ties)):
        want = column_loop(vecs.copy())
        got = ci._fix_signs(vecs.copy())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_davidson_matches_eigh(toy):
    """davidson, called below and above the cut, vs scipy.linalg.eigh."""
    slater = toy
    lists = [build_config_list(1, 3, S) for S in (0, 1)]
    cases = [(H, 2) for H in assemble_hamiltonian(lists, slater)]
    for z in (1.0, 2.0):
        ctx = build_context(RunConfig(z=z, l_max=3, n_max=25), states=())
        lists = [build_config_list(3, 25, S) for S in (0, 1)]
        Hs = assemble_hamiltonian(lists, SlaterIntegralTable(ctx.orbitals))
        # lowest_states' first rungs, roots 0..n2 - S for the ground and
        # 1s2s targets (the Z = 1 ground rung converges only from the wide
        # start subspace), and 12 roots
        cases += [(H, top) for H, tops in zip(Hs, ((1, 2, 11), (1, 11)))
                  for top in tops]
    for H, top in cases:
        spec = davidson(H, top)
        assert not spec.complete   # converged, no fallback
        eigval, eigvec = scipy.linalg.eigh(H, subset_by_index=(0, top))
        cols = np.arange(top + 1)
        eigvec *= np.sign(eigvec[np.argmax(np.abs(eigvec), axis=0), cols])
        assert_allclose(spec.eigenvalues, eigval, rtol=0, atol=1e-10)
        overlap = np.sum(spec.eigenvectors * eigvec, axis=0)
        assert np.all(1.0 - overlap <= 1e-10)   # signs equal too


@pytest.mark.parametrize("name, value", [("DAVIDSON_MAX_ITER", 1),
                                         ("NEW_DIRECTION", 2.0)])
def test_davidson_falls_back_to_eigh(monkeypatch, name, value):
    # a matrix wider than davidson's start subspace, which would otherwise
    # hold every root exactly after one Rayleigh-Ritz step
    ctx = build_context(RunConfig(z=2.0, **SCAN_DEFAULTS), states=())
    (H,) = assemble_hamiltonian([build_config_list(2, 15, 1)],
                                SlaterIntegralTable(ctx.orbitals))
    assert len(H) > ci.START_BLOCK
    want = diagonalize(H)
    monkeypatch.setattr(ci, name, value)
    calls, eigh = [], np.linalg.eigh   # the fallback's own call is H-sized
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: calls.append(a.shape) or eigh(a))
    got = davidson(H, 2)
    steps = [shape for shape in calls if shape != H.shape]
    assert len(steps) == 1 and got.complete   # one Rayleigh-Ritz
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)


def test_diagonalize_rejects_asymmetric_hamiltonian():
    # davidson forms H V as (V^T H)^T, which equals H V only when H is
    # exactly symmetric: one ulp off must fail on the eigh and the
    # Davidson route alike, before either solves
    ctx = build_context(RunConfig(z=2.0, **SCAN_DEFAULTS), states=())
    (H,) = assemble_hamiltonian([build_config_list(2, 15, 1)],
                                SlaterIntegralTable(ctx.orbitals))
    assert len(H) >= ci.DAVIDSON_MIN_DIM
    skewed = H.copy()
    skewed[3, 40] = np.nextafter(skewed[3, 40], np.inf)
    for bad in (skewed, H[:, :-1]):
        for top in (None, 2):
            with pytest.raises(InconsistentInputError):
                diagonalize(bad, top)


def test_davidson_on_leading_view_copies_nothing():
    """run_convergence passes leading views H[:m, :m] of one larger H.

    davidson must solve such a view as it solves its contiguous copy, and
    its products must read the view in place: a copy alone is 8 m^2 bytes.
    """
    ctx = build_context(RunConfig(z=2.0, l_max=4, n_max=30), states=())
    (H,) = assemble_hamiltonian([build_config_list(4, 30, 0)],
                                SlaterIntegralTable(ctx.orbitals))
    m = len(build_config_list(2, 30, 0))   # the l <= 2 rows lead
    view = H[:m, :m]
    assert not view.flags.contiguous
    tracemalloc.start()
    try:
        got = davidson(view, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m / 4
    want = davidson(np.ascontiguousarray(view), 1)
    assert not got.complete and not want.complete
    assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)
    assert_allclose(got.eigenvectors, want.eigenvectors, rtol=0, atol=1e-12)


def test_two_body_part_positive_definite():
    """lambda_min(H - diag(e_a + e_b)) > 0 on the benchmark's bases.

    The two-body part is the projection of the positive operator 1/r12, so
    it must be positive definite in any basis; Weyl's inequality then
    bounds the lowest root below by the lowest e_a + e_b.  Both spins at
    l2,n15 on eight scan charges (smallest value 4.9e-4, at Z = 1), and
    the He l4,n30, r_max 60 singlet (8.9e-3).
    """
    cases = [(RunConfig(z=z, **SCAN_DEFAULTS), (0, 1))
             for z in (100.0, 25.0, 5.0, 2.0, 1.5, 1.2, 1.05, 1.0)]
    cases.append((RunConfig(z=2.0, l_max=4, n_max=30, r_max=60.0), (0,)))
    for config, spins in cases:
        ctx = build_context(config, ())
        orbitals, res = ctx.orbitals, ctx.config
        lists = [build_config_list(res.l_max, res.n_max, S) for S in spins]
        Hs = assemble_hamiltonian(lists, SlaterIntegralTable(orbitals))
        for configs, H in zip(lists, Hs):
            one_body = [orbitals.energy(c.n1, c.l) + orbitals.energy(c.n2, c.l)
                        for c in configs]
            V = H - np.diag(one_body)
            assert np.linalg.eigvalsh(V)[0] > 0, (config.z, configs.S)


def test_helium_energies_small_basis():
    # modest basis: energies land within a few mH of the converged values
    basis = BSplineBasis(make_knots(60.0, 19, 7))
    slater = SlaterIntegralTable(build_orbital_set(basis, 2.0, 15, 2))
    configs = build_config_list(2, 15, 0)
    spec = diagonalize(*assemble_hamiltonian([configs], slater))
    assert abs(spec.eigenvalues[0] - (-2.9037)) < 5e-3
    configs_t = build_config_list(2, 15, 1)
    spec_t = diagonalize(*assemble_hamiltonian([configs_t], slater))
    assert abs(spec_t.eigenvalues[0] - (-2.1752)) < 2e-3
