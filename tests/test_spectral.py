"""Eigenvalue solves and inertia counting for the stability pencil."""

import dataclasses
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from mhs import fem, rotational, spectral
from mhs.closedform import clifford_jacobi, equator_jacobi
from mhs.errors import (InvalidParameterError, MultiplicityWarningError,
                        NumericalFailureError)
from mhs.geometry import clifford
from mhs.spectral import (first_eigfunction, inertia_below, lowest_eigs,
                          morse_index)


def test_clifford_index_and_lambda1(clifford_op):
    report = lowest_eigs(clifford_op, count=12, zero_tol=0.05)
    assert report.index == 5
    assert abs(report.lambda1 + 4.0) < 5e-2
    assert report.nullity == 4
    assert np.all(np.diff(report.eigenvalues) >= 0)


def test_sphere_index_and_lambda1(sphere_op):
    report = lowest_eigs(sphere_op, count=8, zero_tol=0.05)
    assert report.index == 1
    assert abs(report.lambda1 + 2.0) < 5e-2
    assert report.nullity == 3


def test_window_saturation_flag(otsuki_op_coarse, clifford_op):
    # on the Otsuki torus all twelve lowest eigenvalues are negative, so
    # the window index is only a lower bound on the Morse index
    report = lowest_eigs(otsuki_op_coarse, count=12)
    assert report.eigenvalues[-1] < -report.zero_tol
    assert report.window_saturated
    assert report.to_dict()["window_saturated"] is True
    # the twelfth Clifford eigenvalue is 4: the window clears zero
    report = lowest_eigs(clifford_op, count=12)
    assert report.eigenvalues[-1] > 3.5
    assert not report.window_saturated


def test_counts_validated(clifford_op):
    with pytest.raises(InvalidParameterError):
        lowest_eigs(clifford_op, count=0)
    with pytest.raises(InvalidParameterError):
        lowest_eigs(clifford_op, count=clifford_op.size + 1)


def test_inertia_matches_eigensolver(clifford_op):
    assert inertia_below(clifford_op, -0.05) == 5
    assert inertia_below(clifford_op, -3.0) == 1
    assert inertia_below(clifford_op, -1e6) == 0


def test_inertia_dense_and_sparse_agree(clifford_ops):
    # with the phi-mode split withheld, the sparse signature of the 1024
    # unknowns of Clifford 32^2 against a dense solve of the whole pencil
    ops = dataclasses.replace(clifford_ops[32], grid_shape=None)
    exact = sla.eigh(ops.B.toarray(), ops.Mm.toarray(), eigvals_only=True)
    assert (exact < -0.05).sum() == 5   # the Clifford index
    for sigma in (-3.0, -0.05, 0.05, 4.5):
        assert inertia_below(ops, sigma) == int((exact < sigma).sum())


def test_dissection_order_is_a_permutation(sphere_op):
    order = spectral.dissection_order(sphere_op.B)
    assert np.array_equal(np.sort(order), np.arange(sphere_op.size))
    assert np.array_equal(spectral.dissection_order(sphere_op.B), order)
    # more than one dissection depth, so separators were placed
    assert sphere_op.size > 16 * spectral._DISSECTION_LEAF
    # two disconnected copies of one pattern
    B2 = fem.assemble(fem.mesh_sphere(2)).B
    order = spectral.dissection_order(sps.block_diag([B2, B2]))
    assert np.array_equal(np.sort(order), np.arange(2 * B2.shape[0]))


def test_dissection_order_keeps_the_factor_sparse(sphere_op):
    # eliminating parts before their separators fills far less than the
    # banded reverse Cuthill-McKee order (194,702 against 350,652 on
    # ico4); a separator placed first or a lopsided cut exceeds the bound
    B = sphere_op.B.tocsc()
    order = sphere_op.elimination_order

    def fill(p):
        A = (B - (-sphere_op.q_max - 1.0) * sphere_op.Mm)[p][:, p].tocsc()
        lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        return lu.L.nnz + lu.U.nnz

    rcm = csgraph.reverse_cuthill_mckee(sphere_op.B.tocsr(),
                                        symmetric_mode=True)
    assert fill(order) < 0.7 * fill(rcm)


def test_nodal_path_matches_independent_references(sphere_op, clifford_op):
    sigma = -sphere_op.q_max - 1.0
    ref = np.sort(spla.eigsh(sphere_op.B, 16, M=sphere_op.Mm, sigma=sigma,
                             which="LM", return_eigenvectors=False))
    report = lowest_eigs(sphere_op, 16)
    assert report.path == "shift-invert"
    assert np.abs(report.eigenvalues - ref).max() < 1e-10
    for s in (-3.0, -0.05, 0.05, 4.5):
        assert inertia_below(sphere_op, s) == int((ref < s).sum())
    # chart sets take the phi-mode path and never order the nodal pencil
    morse_index(clifford_op)
    assert "elimination_order" not in clifford_op.__dict__


def test_imported_otsuki_mesh_takes_the_nodal_path(otsuki_profile):
    # an exported-then-imported mesh has no chart grid, so even 1,024
    # unknowns of an indefinite pencil take shift-invert Lanczos and the
    # sparse signature
    family = rotational.build_surface(otsuki_profile, 64, 16)
    torus = fem.mesh_torus(family, 64, 16)
    mesh = fem.mesh_from_json(fem.mesh_to_json(torus))
    ops = fem.assemble(mesh)
    assert (ops.size, ops.phi_modes) == (1024, None) and mesh.degraded_normals
    exact = sla.eigh(ops.B.toarray(), ops.Mm.toarray(), eigvals_only=True)
    index, report = morse_index(ops)
    assert (index, report.path) == (12, "shift-invert")
    size = len(report.eigenvalues)
    assert np.all(np.abs(report.eigenvalues - exact[:size])
                  <= 1e-11 * np.maximum(np.abs(exact[:size]), 1))
    for sigma in (-3.0, -0.05, 0.05, 4.5):
        assert inertia_below(ops, sigma) == int((exact < sigma).sum())


def test_shift_invert_refuses_indefinite_factor(sphere_op):
    # q_max below the potential puts the shift inside the spectrum
    bad = dataclasses.replace(sphere_op, q_max=-10.0)
    with pytest.raises(NumericalFailureError, match="positive definite"):
        lowest_eigs(bad, 4)


def test_first_eigfunction_clifford(clifford_op):
    lam1, rho = first_eigfunction(clifford_op)
    assert abs(lam1 + 4.0) < 5e-2
    assert rho.min() > 0
    # constant ground state when the potential is constant
    assert (rho.max() - rho.min()) < 1e-6 * rho.max()
    assert abs(rho @ (clifford_op.Mm @ rho) - 1.0) < 1e-10


def test_first_eigfunction_positive_on_otsuki(otsuki_op):
    lam1, rho = first_eigfunction(otsuki_op)
    assert rho.min() > 0
    assert lam1 < -4.0  # strictly below the product-torus ground level


def test_first_eigfunction_multiplicity_guard(clifford_op):
    # shifting the potential so the bottom eigenvalue is a sign-changing
    # coordinate mode must trip the simplicity check
    import dataclasses
    ops = dataclasses.replace(clifford_op, W=clifford_op.W * 0.0)
    # now B = K is PSD with constant kernel; ground state is constant
    lam1, rho = first_eigfunction(ops)
    assert abs(lam1) < 1e-8 and rho.min() > 0
    # project out the constant: K restricted bottom modes oscillate
    ops_bad = dataclasses.replace(
        clifford_op, W=(clifford_op.K + clifford_op.W) * 0.5)
    try:
        _, rho_bad = first_eigfunction(ops_bad)
        assert rho_bad.min() > 0
    except MultiplicityWarningError:
        pass  # acceptable: the contrived pencil has a degenerate bottom


# Urbano (Proc. AMS 108, 1990): a minimal surface in S^3 other than the
# equator has index >= 5, with equality only for the Clifford torus
URBANO_MIN_INDEX = 5


def test_morse_index_cross_validates(clifford_op, sphere_op):
    assert morse_index(clifford_op)[0] == URBANO_MIN_INDEX
    assert morse_index(sphere_op)[0] == 1


def test_otsuki_index(otsuki_op):
    idx, report = morse_index(otsuki_op)
    assert idx > URBANO_MIN_INDEX
    assert inertia_below(otsuki_op, -0.05) == idx


@pytest.mark.parametrize("p, q, nt, nphi, assembler, index", [
    (3, 5, 425, 17, fem.assemble_spectral, 20),
    (3, 5, 425, 25, fem.assemble_spectral, 20),
    (7, 10, 255, 17, fem.assemble_spectral, 46),
    (7, 10, 425, 17, fem.assemble_spectral, 46),
    (5, 9, 576, 64, fem.assemble, 36),
], ids=["3-5-spectral-425x17", "3-5-spectral-425x25",
        "7-10-spectral-255x17", "7-10-spectral-425x17", "5-9-p1-576x64"])
def test_otsuki_index_census(p, q, nt, nphi, assembler, index):
    # index and nullity of further Otsuki tori, each at two resolutions
    # or on the independent P1 discretization; the nullity is 5 for the
    # Killing fields, 6 - 1, and every index exceeds Urbano's bound
    family = rotational.build_surface(rotational.find_otsuki(p, q), nt, nphi)
    got, report = morse_index(assembler(fem.mesh_torus(family, nt, nphi)))
    assert (got, report.nullity) == (index, 5)
    assert got > URBANO_MIN_INDEX


def test_discrete_spectra_converge_from_above(clifford_ops):
    oracle, _, _ = clifford_jacobi(2, 1)
    exact = np.concatenate([[float(e)] * m for e, m in oracle.entries])
    reports = {res: lowest_eigs(ops, count=9)
               for res, ops in clifford_ops.items()}
    for res, rep in reports.items():
        assert np.all(rep.eigenvalues >= exact[:9] - 1e-9)
    # Galerkin monotonicity under nested refinement
    for a, b in ((16, 32), (32, 64)):
        assert np.all(reports[b].eigenvalues
                      <= reports[a].eigenvalues + 1e-12)
    # fine mesh within 5e-2 of the oracle on the first 5 eigenvalues
    assert np.abs(reports[64].eigenvalues[:5] - exact[:5]).max() < 5e-2


def test_equator_oracle_match(sphere_op):
    oracle, _, _ = equator_jacobi(2)
    exact = np.concatenate([[float(e)] * m for e, m in oracle.entries])
    rep = lowest_eigs(sphere_op, count=5)
    assert np.abs(rep.eigenvalues - exact[:5]).max() < 5e-2


def test_lambda1_ordering_across_families(clifford_op, sphere_op, otsuki_op):
    # ground level -2n with equality only for the product torus
    assert abs(lowest_eigs(clifford_op, 1).lambda1 + 4.0) < 5e-2
    assert lowest_eigs(otsuki_op, 1).lambda1 < -4.0 - 0.05
    assert lowest_eigs(sphere_op, 1).lambda1 > -4.0 + 0.05


# --------------------------------------------------- phi-Fourier modes

def _unreduced(ops):
    """The same pencil without its chart grid: no phi-mode split."""
    return dataclasses.replace(ops, grid_shape=None)


def _sign_fixed(ops, x):
    x = x / np.sqrt(x @ (ops.Mm @ x))
    return x if np.ones(ops.size) @ (ops.Mm @ x) > 0 else -x


@pytest.mark.parametrize("name", ["otsuki_op_coarse", "otsuki_op",
                                  "otsuki_op_spectral", "clifford_op"])
def test_phi_modes_agree_with_unreduced_path(name, request):
    ops = request.getfixturevalue(name)
    full = _unreduced(ops)
    if name.endswith("_spectral"):
        # dense K, diagonal Mm: one dense solve of Mm^-1/2 B Mm^-1/2
        s = 1.0 / np.sqrt(ops.Mm.diagonal())
        vals, Y = sla.eigh(s[:, None] * ops.B.toarray() * s,
                           subset_by_index=[0, 23])
        assert vals[-1] > 0.05   # the window clears every counted shift
        vecs, count_below = s[:, None] * Y, lambda x: int((vals < x).sum())
    else:
        plain = lowest_eigs(full, 24, vectors=True)
        assert plain.path == "shift-invert" and not plain.window_saturated
        vals, vecs = plain.eigenvalues, plain.vectors
        count_below = partial(inertia_below, full)
    reduced = lowest_eigs(ops, 24)
    assert reduced.path == "phi-modes"
    assert np.abs(reduced.eigenvalues - vals).max() < 1e-10
    index, report = morse_index(ops)
    assert (index, report.nullity) == ((vals < -0.05).sum(),
                                       (np.abs(vals) <= 0.05).sum())
    for sigma in (-3.0, -0.05, 0.05):
        assert inertia_below(ops, sigma) == count_below(sigma)
    lam1, rho = first_eigfunction(ops)
    assert abs(lam1 - vals[0]) < 1e-10
    assert np.abs(rho - _sign_fixed(full, vecs[:, 0])).max() < 1e-10


def test_phi_modes_carry_the_whole_spectrum(clifford_ops, otsuki_profile,
                                           clifford_op_spectral):
    # every mode, the Nyquist one of an even side included, against a
    # dense solve of the whole pencil
    family = rotational.build_surface(otsuki_profile, 40, 16)
    small_otsuki = fem.assemble(fem.mesh_torus(family, 40, 16))
    for ops in (clifford_ops[16], small_otsuki, clifford_op_spectral):
        reduced = lowest_eigs(ops, ops.size)
        plain = lowest_eigs(_unreduced(ops), ops.size)
        assert (reduced.path, plain.path) == ("phi-modes", "dense")
        nphi = ops.grid_shape[1]
        assert set(reduced.modes) == set(range(nphi // 2 + 1))
        err = np.abs(reduced.eigenvalues - plain.eigenvalues)
        assert np.all(err <= 1e-10 * np.maximum(np.abs(plain.eigenvalues), 1))


def test_phi_mode_vectors_are_mm_orthonormal_eigenvectors(otsuki_op):
    report = lowest_eigs(otsuki_op, 24, vectors=True)
    X = report.vectors
    assert set(report.modes) == {0, 1, 2}
    assert np.abs(X.T @ (otsuki_op.Mm @ X) - np.eye(24)).max() < 1e-10
    R = otsuki_op.B @ X - (otsuki_op.Mm @ X) * report.eigenvalues
    assert np.abs(R).max() < 1e-10


def test_phi_mode_path_taken_on_chart_sets(clifford_op, clifford_op_spectral,
                                           otsuki_op, otsuki_op_spectral):
    for ops in (clifford_op, clifford_op_spectral, otsuki_op,
                otsuki_op_spectral):
        report = lowest_eigs(ops, 12)
        assert report.path == "phi-modes"
        assert len(report.modes) == 12
        assert report.to_dict()["modes"] == report.modes.tolist()


def test_phi_mode_path_refused_off_chart(sphere_op, clifford_meshes,
                                         clifford_ops):
    assert sphere_op.phi_modes is None
    assert lowest_eigs(sphere_op, 4).path == "shift-invert"
    imported = fem.assemble(fem.mesh_from_json(
        fem.mesh_to_json(clifford_meshes[16])))
    report = lowest_eigs(imported, 4)
    assert report.path == "shift-invert" and report.modes is None
    assert report.solved_modes is None
    doc = report.to_dict()
    assert doc["modes"] is None and doc["solved_modes"] is None
    # one potential entry off by 1e-6 breaks the phi-shift invariance:
    # the split must be refused, and the answer must not change
    ops = clifford_ops[32]
    W = ops.W.tolil()
    W[37, 37] += 1e-6
    bent = dataclasses.replace(ops, W=W.tocsr())
    assert bent.phi_modes is None
    index, report = morse_index(bent)
    assert report.path == "shift-invert"
    assert index == morse_index(_unreduced(ops))[0] == 5


def _periodic(n, diag, offsets):
    """Symmetric n x n circulant with diag on the diagonal and c at the
    offsets +-s of each (s, c) in offsets."""
    A = diag * sps.eye(n)
    for s, c in offsets:
        A = A + c * (sps.eye(n, k=s) + sps.eye(n, k=s - n)
                     + sps.eye(n, k=-s) + sps.eye(n, k=n - s))
    return A


def _synthetic_ops():
    """B = T (x) I + I (x) P and Mm = Mt (x) Mphi on a 6 x 8 grid."""
    nt, nphi = 6, 8
    T = _periodic(nt, 0.6, [(1, -0.3)])
    P = _periodic(nphi, 0.7, [(1, 0.25), (2, -1.0)])
    Mt = _periodic(nt, 4 / 6, [(1, 1 / 6)])
    Mphi = _periodic(nphi, 4 / 6, [(1, 1 / 6)])
    B = (sps.kron(T, sps.eye(nphi)) + sps.kron(sps.eye(nt), P)).tocsr()
    Mm = sps.kron(Mt, Mphi).tocsr()
    return fem.OperatorSet(K=B, Mm=Mm, W=sps.csr_matrix(B.shape), n=2,
                           q_max=10.0, grid_shape=(nt, nphi))


def test_phi_mode_sweep_finds_a_lowest_mode_past_certified_ones():
    # B = T (x) I + I (x) P on a 6 x 8 grid, where the phi circulant P has
    # symbol 0.7 + cos(theta) / 2 - 2 cos(2 theta) over modes k = 0..4:
    # -0.8, 1.05, 2.7, 0.35 and -1.8, so the lowest eigenvalue lies in
    # the Nyquist mode k = 4, past modes that Cholesky certifies
    ops = _synthetic_ops()
    nphi = ops.grid_shape[1]
    B, Mm = ops.B, ops.Mm
    exact = sla.eigh(B.toarray(), Mm.toarray(), eigvals_only=True)
    assert np.abs(exact).min() > 0.1   # no count sits on a tolerance
    for count in (1, 3, 12):
        fresh = dataclasses.replace(ops)   # empty mode caches
        report = lowest_eigs(fresh, count)
        assert report.path == "phi-modes" and report.modes[0] == nphi // 2
        assert np.abs(report.eigenvalues - exact[:count]).max() < 1e-12
        if count == 1:   # modes 1 to 3 certified, not solved
            assert sorted(fresh.phi_modes.solved) == [0, 4]
    for sigma in (-3.0, -0.05, 0.05, 1.0, 4.5):
        assert inertia_below(ops, sigma) == int((exact < sigma).sum())
    index, report = morse_index(ops)
    plain_index, plain = morse_index(_unreduced(ops))
    assert plain.path == "dense"
    assert (index, report.nullity) == (plain_index, plain.nullity) == (
        (exact < -0.05).sum(), (np.abs(exact) <= 0.05).sum())


def test_phi_mode_ties_are_listed_by_mode():
    # the lowest values of modes 0 and 2 one ulp apart, once in each
    # order: a tie, so the list of modes must not depend on the rounding
    eye = sps.identity(16, format="csr")
    lo, hi = -4.0, np.nextafter(-4.0, 0.0)
    lists = []
    for a, b in ((lo, hi), (hi, lo)):
        modes = spectral.PhiModes(2, 8, eye, eye)
        modes.solved = {0: (np.array([a, 1.0]), None),
                        2: (np.array([b, 0.5]), None)}
        vals, labels, cols = modes._merged()
        assert np.all(np.diff(vals) >= 0)
        # each column keeps the value of its own mode
        own = [modes.solved[k][0][c // modes.multiplicity(k)]
               for k, c in zip(labels, cols)]
        assert np.abs(np.array(own) - vals).max() <= 1e-15
        lists.append(labels.tolist())
    assert lists[0] == lists[1] == [0, 2, 2, 2, 2, 0]


@pytest.mark.parametrize("name", ["otsuki_op_coarse", "clifford_op",
                                  "otsuki_op_spectral"])
def test_phi_mode_cutoff_agrees_with_every_mode_solved(name, request):
    ops = request.getfixturevalue(name)
    # fresh copies: the mode caches of the session fixture stay out
    every = dataclasses.replace(ops)
    full = lowest_eigs(every, ops.size)
    assert len(every.phi_modes.solved) == every.phi_modes.count
    # on Clifford 64^2 the tenth value, 4.032, is shared by modes 0 and 2
    # (the square grid is symmetric under t <-> phi): a certificate taken
    # exactly at tau would pass or fail on rounding
    for count in (10, 32):
        cut = dataclasses.replace(ops)
        with mock.patch.object(spectral.sla, "eigh", wraps=sla.eigh) as eigh:
            report = lowest_eigs(cut, count)
            index, window = morse_index(cut)
        modes = cut.phi_modes
        assert eigh.call_count == len(modes.solved) < modes.count
        for rep in (report, window):
            size = len(rep.eigenvalues)
            assert np.abs(rep.eigenvalues
                          - full.eigenvalues[:size]).max() <= 1e-12
            assert np.array_equal(rep.modes, full.modes[:size])
        assert (index, window.nullity) == (
            (full.eigenvalues < -0.05).sum(),
            (np.abs(full.eigenvalues) <= 0.05).sum())
        # every mode left unsolved carries a Cholesky certificate at or
        # above the largest value returned
        unsolved = sorted(set(range(modes.count)) - set(modes.solved))
        assert unsolved
        assert np.all(modes.certified[unsolved]
                      >= max(report.eigenvalues[-1], window.eigenvalues[-1]))


def _mode_reference(ops, k):
    """Dense (B_k, Mm_k) of mode k projected from the whole pencil:
    U^H A U with U = I (x) e^(2 pi i j k / nphi) / sqrt(nphi)."""
    nt, nphi = ops.grid_shape
    f = np.exp(2j * np.pi * np.arange(nphi) * k / nphi) / np.sqrt(nphi)
    if (2 * k) % nphi == 0:
        f = f.real
    U = sps.kron(sps.identity(nt), f[:, None]).tocsc()
    return [(U.conj().T @ (A @ U)).toarray() for A in (ops.B, ops.Mm)]


def _mode_spectra(ops):
    """Dense eigh spectrum of every mode pencil, projected from the whole
    pencil (``_mode_reference``)."""
    return [sla.eigh(*_mode_reference(ops, k), eigvals_only=True)
            for k in range(ops.phi_modes.count)]


def _count_below(modes, spectra, shift):
    return sum(modes.multiplicity(k) * int((lam < shift).sum())
               for k, lam in enumerate(spectra))


def test_mode_signature_cholesky_fast_path(request):
    shifts = np.r_[-3.0, -0.05, 0.05, 4.5,
                   np.random.default_rng(11).uniform(-8.0, 6.0, 10)]
    for name in ("otsuki_op_coarse", "clifford_op", "otsuki_op_spectral",
                 "clifford_op_spectral"):
        ops = request.getfixturevalue(name)
        modes = ops.phi_modes
        spectra = _mode_spectra(ops)
        fallbacks = 0
        for sigma in shifts:
            with mock.patch.object(spectral, "_signature",
                                   wraps=spectral._signature) as sig:
                fast = spectral._mode_signature(modes, sigma)
            assert fast == (_count_below(modes, spectra, sigma), True), (
                name, sigma)
            # the others factored by Cholesky
            assert sig.call_count < modes.count
            fallbacks += sig.call_count
        assert fallbacks >= 1, name   # some mode took the pivots of its band
        # on the ground state of mode 0, where the shifted band is
        # singular to rounding and the eigenvalue estimate shows it
        # whichever side of the band's edge lam rounds to, and at the
        # edge of where its banded Cholesky factorization succeeds, found
        # by bisection, where the factor exists but its last pivot sits
        # at roundoff level: the mode must defer to the pivots of its
        # band, which give no count; the jitter retry takes over
        lam = sla.eigh(*modes.pencil(0), eigvals_only=True)[0]
        lo, hi = lam - 1e-6, lam + 1e-6
        assert modes.positive(0, lo) and not modes.positive(0, hi)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if modes.positive(0, mid) else (lo, mid)
        assert modes.positive(0, lo) and not modes.positive(0, lo, 1e-12)
        for shift in (lam, lo):
            with mock.patch.object(spectral, "_signature",
                                   wraps=spectral._signature) as sig:
                assert spectral._mode_signature(modes, shift) == (0, False)
            assert sig.call_count == 1   # mode 0, the first, stopped the sum
            with mock.patch.object(spectral, "_mode_signature",
                                   wraps=spectral._mode_signature) as retry:
                count = inertia_below(ops, shift)
            assert retry.call_count > 1 and count == 1, name


def test_signature_flags_pivot_growth(otsuki_op_coarse):
    # near an eigenvalue mu of the leading half block of the mode-1 band,
    # 0.03 from every eigenvalue of the mode, the unpivoted elimination
    # in band order meets a pivot near zero and the later pivots grow by
    # its inverse: every pivot clears the plain 1e-12 floor there, but
    # the growth marks the count unreliable and the jitter retry takes
    # over
    ops, k = otsuki_op_coarse, 1
    modes = ops.phi_modes
    m = modes.nt // 2
    Bk, Mk = modes.pencil(k)
    spectra = _mode_spectra(ops)
    lead = sla.eigh(Bk[:m, :m], Mk[:m, :m], eigvals_only=True)
    mu = lead[lead > spectra[k][0]][0]
    assert np.abs(spectra[k] - mu).min() > 0.03
    order = np.arange(modes.nt)
    flagged = 0
    for sigma in mu + np.logspace(-14, -3, 12):
        A = sps.csc_matrix(spectral._unband(modes.band(k, sigma)))
        d = spectral._ordered_factor(A, order)[0].real
        neg, ok = spectral._signature(A, order)
        if ok:
            assert neg == (spectra[k] < sigma).sum()
        elif np.abs(d).min() > 1e-12 * np.abs(A.data).max():
            flagged += 1
        assert inertia_below(ops, sigma) == _count_below(modes, spectra,
                                                         sigma)
    assert flagged >= 1


@pytest.mark.parametrize("name", ["otsuki_op_coarse", "clifford_op",
                                  "otsuki_op_spectral", "synthetic"])
def test_banded_certificate_brackets_every_mode(name, request):
    ops = _synthetic_ops() if name == "synthetic" else (
        request.getfixturevalue(name))
    modes = ops.phi_modes
    nt = ops.grid_shape[0]
    assert modes.kd == (nt - 1 if name.endswith("_spectral") else 2)
    # the interleaved order 0, nt-1, 1, nt-2, ...
    i = np.arange(nt)
    order = np.argsort(np.minimum(2 * i, 2 * (nt - 1 - i) + 1))
    for k in range(modes.count):
        Bk, Mk = _mode_reference(ops, k)
        mu = sla.eigh(Bk, Mk, eigvals_only=True, subset_by_index=[0, 0])[0]
        gap = 1e-6 * max(abs(mu), 1.0)
        assert modes.positive(k, mu - gap)
        assert not modes.positive(k, mu + gap)
        # the band holds the lower diagonals of the interleaved pencil
        A = (Bk - mu * Mk)[np.ix_(order, order)]
        ab = modes.band(k, mu)
        tol = 1e-12 * (np.abs(Bk).max() + abs(mu) * np.abs(Mk).max())
        for d in range(modes.kd + 1):
            assert np.abs(ab[d, :nt - d] - np.diagonal(A, -d)).max() <= tol
            assert not ab[d, nt - d:].any()


@pytest.mark.parametrize("size", [None, 128], ids=["otsuki", "clifford"])
def test_morse_index_reports_its_solved_modes(size, otsuki_op,
                                              clifford_family):
    # P1 Otsuki 256x64 and Clifford 128^2 each solve modes 0, 1 and 2 by
    # a dense eigensolve; the other 30 and 62 are certified
    if size is None:
        ops = dataclasses.replace(otsuki_op)   # empty mode caches
    else:
        ops = fem.assemble(fem.mesh_torus(clifford_family, size, size))
    _, report = morse_index(ops)
    assert report.solved_modes == tuple(sorted(ops.phi_modes.solved))
    assert report.to_dict()["solved_modes"] == [0, 1, 2]


def test_signature_counts_complex_hermitian(otsuki_op_coarse):
    # a known inertia, 7 negative and 13 positive eigenvalues, in a
    # random elimination order
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20))
                        + 1j * rng.standard_normal((20, 20)))
    d = np.concatenate([-np.arange(1.0, 8.0), np.arange(1.0, 14.0)])
    H = (Q * d) @ Q.conj().T
    H = sps.csc_matrix((H + H.conj().T) / 2)
    assert spectral._signature(H, rng.permutation(20)) == (7, True)
    # exactly singular: the second pivot of [[1, i], [-i, 1]] is 1 - 1
    S = sps.block_diag([sps.csc_matrix([[1.0, 1j], [-1j, 1.0]]), H],
                       format="csc")
    assert spectral._signature(S, np.arange(22)) == (0, False)
    # the band of a complex mode, unpacked, against its dense eigh count
    modes = otsuki_op_coarse.phi_modes
    k, sigma = 1, -1.0
    A = sps.csc_matrix(spectral._unband(modes.band(k, sigma)))
    assert np.abs(A.data.imag).max() > 0
    expected = int((sla.eigh(*_mode_reference(otsuki_op_coarse, k),
                             eigvals_only=True) < sigma).sum())
    assert expected > 0
    assert spectral._signature(A, np.arange(modes.nt)) == (expected, True)


def test_spectral_otsuki_exact_landmarks(otsuki_op_spectral):
    # Otsuki (2, 3) on the spectral set 255 x 17: -n = -2 has
    # multiplicity 4, the rank of span{f_v}, and 0 has multiplicity 5,
    # 6 - 1 for the Killing fields; index 12
    index, report = morse_index(otsuki_op_spectral)
    assert (index, report.nullity) == (12, 5)
    vals, modes = report.eigenvalues, report.modes
    for value, expected in ((-2.0, [0, 0, 1, 1]), (0.0, [0, 1, 1, 1, 1])):
        near = np.abs(vals - value) < 1e-11
        assert sorted(modes[near]) == expected
