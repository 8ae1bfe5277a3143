"""Eigenvalue solves and inertia counting for the stability pencil."""

import dataclasses
import itertools
import weakref
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from conftest import chart_set, whole_scatter
from mhs import fem, rotational, spectral
from mhs.closedform import clifford_jacobi, equator_jacobi
from mhs.errors import (InvalidParameterError, MultiplicityWarningError,
                        NumericalFailureError)
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


def test_counts_validated(clifford_op, clifford_op_spectral):
    with pytest.raises(InvalidParameterError):
        lowest_eigs(clifford_op, count=0)
    with pytest.raises(InvalidParameterError):
        lowest_eigs(clifford_op, count=clifford_op.size + 1)
    # a line has every phi-mode, so an infinite size, but a count must be
    # finite
    with pytest.raises(InvalidParameterError, match="finite"):
        lowest_eigs(clifford_op_spectral, count=clifford_op_spectral.size)
    # an empty, inverted or NaN zero window miscounts: -1 read index 9
    # for 5 on Clifford 16^2, and NaN index 0 and nullity 0
    for ops in (clifford_op, clifford_op_spectral):
        for zero_tol in (0.0, -1.0, np.nan, np.inf):
            for solve in (partial(lowest_eigs, ops, 4), partial(morse_index,
                                                                ops)):
                with pytest.raises(InvalidParameterError, match="zero_tol"):
                    solve(zero_tol=zero_tol)


def test_inertia_matches_eigensolver(clifford_op):
    assert inertia_below(clifford_op, -0.05) == 5
    assert inertia_below(clifford_op, -3.0) == 1
    assert inertia_below(clifford_op, -1e6) == 0


def test_inertia_dense_and_sparse_agree(clifford_meshes):
    # on the whole scatter, which does not split, the sparse signature of
    # the 1024 unknowns of Clifford 32^2 against a dense solve
    ops = whole_scatter(clifford_meshes[32])
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
    # banded reverse Cuthill-McKee order (158,080 against 350,652 on
    # ico4); a separator placed first or a lopsided cut exceeds the
    # bounds, and so does leaving parts of 64 vertices whole (194,702)
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
    assert fill(order) <= 0.85 * 194_702


def _block_inverse_iteration(ops, count, sigma, block=32, steps=30):
    """The lowest count eigenvalues of (B, Mm) by block inverse iteration
    at sigma below the spectrum, a Rayleigh-Ritz step after each solve
    (Rutishauser, Numer. Math. 16, 1970), from a seeded block.  A block
    method holds every member of a cluster inside the block; on ico4 the
    16th value, in the 7-fold cluster near 10, converges as (13/31)^2 a
    step against the 33rd, in the cluster near 28."""
    lu = spla.splu((ops.B - sigma * ops.Mm).tocsc())
    X = np.random.default_rng(1).standard_normal((ops.size, block))
    for _ in range(steps):
        X = lu.solve(ops.Mm @ X)
        vals, Y = sla.eigh(X.T @ (ops.B @ X), X.T @ (ops.Mm @ X))
        X = X @ Y
    return vals[:count]


def test_nodal_path_matches_independent_references(sphere_op, clifford_op):
    # a reference by a block method, not Lanczos: an unseeded ARPACK one
    # sometimes dropped a member of the 4-fold cluster at 10.0614, and a
    # dense solve of the 2562 unknowns takes 2 s
    ref = _block_inverse_iteration(sphere_op, 16, -sphere_op.q_max - 1.0)
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
    family = rotational.build_surface(otsuki_profile)
    torus = fem.mesh_torus(family, 64, 16)
    mesh = fem.mesh_from_json(fem.mesh_to_json(torus))
    ops = fem.assemble(mesh)
    assert (ops.size, ops.phi_modes) == (1024, None) and mesh.degraded_normals
    exact = sla.eigh(ops.B.toarray(), ops.Mm.toarray(), eigvals_only=True)
    index, report = morse_index(ops)
    assert (index, report.path) == (12, "shift-invert")
    assert report.nullity == int((np.abs(exact) <= 0.05).sum())
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


def _counted(name):
    """mock.patch of a spectral module attribute that counts its calls."""
    module = spla if name == "eigsh" else spectral
    return mock.patch.object(module, name, wraps=getattr(module, name))


@pytest.mark.parametrize("level", [3, 4])
def test_nodal_morse_index_counts_both_ends(level):
    # c+ at +zero_tol first, its factor dropped before the factor at
    # -zero_tol that counts c- and drives Lanczos; the window is the
    # counted c+ + 1 = 5 values (index 1, nullity 3, then the first of
    # degree 2), the lowest 5
    ops = fem.assemble(fem.mesh_sphere(level))
    factor, solves, dropped = spectral._ordered_factor, [], []

    def recording(A, order):
        dropped.append(all(ref() is None for ref in solves))
        pivots, solve = factor(A, order)
        solves.append(weakref.ref(solve))
        return pivots, solve
    with mock.patch.object(spectral, "_ordered_factor", recording), \
            _counted("_nodal_signature") as signature, \
            _counted("eigsh") as eigsh:
        index, report = morse_index(ops)
    assert [c.args[1] for c in signature.call_args_list] == [0.05, -0.05]
    assert dropped == [True, True]
    assert eigsh.call_count == 1 and eigsh.call_args.kwargs["k"] == 5
    assert (index, report.nullity, report.path) == (1, 3, "shift-invert")
    assert report.eigenvalues[-1] > report.zero_tol
    reference = lowest_eigs(ops, 16).eigenvalues[:5]
    assert len(report.eigenvalues) == 5
    assert np.abs(report.eigenvalues - reference).max() < 1e-10


@pytest.mark.parametrize("nt, nphi, window", [(64, 16, 14), (128, 32, 16)])
def test_short_nodal_window_is_solved_once_from_below(otsuki_profile, nt,
                                                      nphi, window):
    # on an imported Otsuki (2,3) mesh lambda1 near -7.3 lies farther
    # below -zero_tol than the counted window's top lies above it, so the
    # c+ + 1 values nearest -zero_tol come back short of c-; that window
    # and its factor are dropped, and one window of c+ + 1 values is
    # solved from below the spectrum
    family = rotational.build_surface(otsuki_profile)
    ops = fem.assemble(fem.mesh_from_json(fem.mesh_to_json(
        fem.mesh_torus(family, nt, nphi))))
    factor, solves, dropped = spectral._ordered_factor, [], []
    eigsh, windows = spla.eigsh, []

    def recording(A, order):
        dropped.append(all(ref() is None for ref in solves))
        pivots, solve = factor(A, order)
        solves.append(weakref.ref(solve))
        return pivots, solve

    def windowed(*args, **kwargs):
        # (k, sigma) only: a mock's call record would keep the operator,
        # and with it the factor, alive
        windows.append((kwargs["k"], kwargs["sigma"]))
        return eigsh(*args, **kwargs)
    with mock.patch.object(spectral, "_ordered_factor", recording), \
            mock.patch.object(spla, "eigsh", windowed):
        index, report = morse_index(ops)
    assert windows == [(window, -0.05), (window, -ops.q_max - 1.0)]
    # the factor at -zero_tol is dropped before the one below the spectrum
    assert dropped == [True, True, True]
    assert (index, report.path) == (12, "shift-invert")
    if ops.size == 1024:
        exact = sla.eigh(ops.B.toarray(), ops.Mm.toarray(),
                         eigvals_only=True)
        nullity = int((np.abs(exact) <= 0.05).sum())
    else:
        nullity = inertia_below(ops, 0.05) - inertia_below(ops, -0.05)
    assert report.nullity == nullity


def test_nodal_nullity_is_certified():
    # an eigensolver that drops one value of the zero window still finds
    # the one value below -zero_tol and a window top above zero_tol; only
    # the count c+ - c- of the factorizations catches it
    ops = fem.assemble(fem.mesh_sphere(3))
    eigsh = spla.eigsh

    def dropping(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        keep = np.arange(len(vals)) != np.flatnonzero(np.abs(vals) <= 0.05)[0]
        return vals[keep], vecs[:, keep]
    with mock.patch.object(spla, "eigsh", dropping):
        with pytest.raises(NumericalFailureError,
                           match="nullity mismatch: eigensolver 2, "
                                 "factorization 3"):
            morse_index(ops)


@pytest.mark.parametrize("level, zero_tol, path", [
    # c+ + 1 = 2 values: the two nearest -zero_tol miss the value
    # below it, so the window is solved from below
    (1, 0.05, "shift-invert"),
    (1, 6.0, "shift-invert"),    # c+ + 1 = 10, a quarter of 42
    (1, 15.0, "dense"),          # c+ + 1 = 17
    (2, 0.05, "shift-invert"),
])
def test_small_sphere_counts_match_dense(level, zero_tol, path):
    # where the counted window comes close to a quarter of the spectrum,
    # the index and nullity are those of the whole pencil
    ops = fem.assemble(fem.mesh_sphere(level))
    exact = sla.eigh(ops.B.toarray(), ops.Mm.toarray(), eigvals_only=True)
    index, report = morse_index(ops, zero_tol)
    assert (index, report.nullity, report.path) == (
        (exact < -zero_tol).sum(), (np.abs(exact) <= zero_tol).sum(), path)
    size = len(report.eigenvalues)
    assert np.abs(report.eigenvalues - exact[:size]).max() < 1e-10


@pytest.mark.parametrize("flip, message", [
    # one count too many: the window at -zero_tol holds one value below
    # it, short of c- = 2, so the window is solved from below, where the
    # flipped pivot counts 1 under the spectrum
    (lambda d: np.flatnonzero(d > 0)[0],
     "shift-invert matrix at sigma = .* is not positive definite"),
    # one count too few
    (lambda d: np.flatnonzero(d < 0)[0],
     "index mismatch: eigensolver 1, factorization 0"),
], ids=["overcount", "undercount"])
def test_nodal_index_check_is_two_sided(flip, message):
    # one pivot's sign flipped in every factor, its solve left alone:
    # Lanczos still finds the one value below -zero_tol, and the counts
    # must not be reconciled
    ops = fem.assemble(fem.mesh_sphere(3))
    factor = spectral._ordered_factor

    def flipped(A, order):
        d, solve = factor(A, order)
        d = d.copy()
        d[flip(d.real)] *= -1
        return d, solve
    with mock.patch.object(spectral, "_ordered_factor", flipped):
        with pytest.raises(NumericalFailureError, match=message):
            morse_index(ops)


def test_level_sweeps_are_unweighted_shortest_paths(sphere_op):
    # breadth-first levels equal dijkstra's unweighted distances from the
    # nearest source, so the dissection order is the same permutation
    def dijkstra_levels(graph, sources):
        level = csgraph.dijkstra(graph, unweighted=True, indices=sources,
                                 min_only=True)
        return np.where(np.isinf(level), -1, level).astype(np.intp)

    B3 = fem.assemble(fem.mesh_sphere(3)).B
    for B, sources in ((sphere_op.B, [0]), (sphere_op.B, [0, 700, 2000]),
                       (sps.block_diag([B3, sphere_op.B]), [5, 642 + 9])):
        graph = sps.csr_matrix(B != 0, dtype=float)
        assert np.array_equal(spectral._levels(graph, np.array(sources)),
                              dijkstra_levels(graph, sources))
        order = spectral.dissection_order(B)
        with mock.patch.object(spectral, "_levels", dijkstra_levels):
            assert np.array_equal(spectral.dissection_order(B), order)
    # a vertex no source reaches has level -1
    graph = sps.csr_matrix(sps.block_diag([B3, B3]) != 0, dtype=float)
    assert np.array_equal(spectral._levels(graph, np.array([0])),
                          dijkstra_levels(graph, [0]))


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


# the ids of the spectral rows carry the phi side of 17 that a line had
# before its modes ran to the pointwise bound; the line itself has none
@pytest.mark.parametrize("p, q, grid, method, index, ground", [
    (3, 5, 425, "spectral", 20, None),
    (7, 10, 255, "spectral", 46, None),
    (7, 10, 425, "spectral", 46, None),
    (5, 9, (576, 64), "p1", 36, "numerically multiple"),
    (5, 9, 855, "spectral", 36, "not resolved as simple"),
    (5, 9, 1089, "spectral", 36, "positive"),
    (6, 11, 495, "spectral", 44, None),
    (6, 11, 1045, "spectral", 44, None),
], ids=["3-5-spectral-425x17", "7-10-spectral-255x17",
        "7-10-spectral-425x17", "5-9-p1-576x64", "5-9-spectral-855x17",
        "5-9-spectral-1089x17", "6-11-spectral-495x17",
        "6-11-spectral-1045x17"])
def test_otsuki_index_census(p, q, grid, method, index, ground):
    # index and nullity of further Otsuki tori, each at two resolutions
    # or on the independent P1 discretization; the nullity is 5 for the
    # Killing fields, 6 - 1, and every index exceeds Urbano's bound.
    # (6, 11) has the value nearest the zero window, 0.81 zero_tol above
    # it.  A spectral line solves modes 0 and 1 alone and its sweep ends
    # at mode 2, whose bound clears the window top, and so every later
    # mode's; no mode needs a certificate of its own
    profile = rotational.find_otsuki(p, q)
    if method == "spectral":
        ops = fem.assemble_spectral(profile, grid)
    else:
        ops = fem.assemble(fem.mesh_torus(rotational.build_surface(profile),
                                          *grid))
    got, report = morse_index(ops)
    assert (got, report.nullity) == (index, 5)
    assert got > URBANO_MIN_INDEX
    if method == "spectral":
        modes = ops.phi_modes
        assert report.solved_modes == (0, 1)
        tau = report.eigenvalues[-1]
        top = tau + spectral._CERTIFY_GAP * max(abs(tau), 1.0)
        assert modes.positive(2, top) and not modes.positive(1, top)
        assert not modes.certified
        # the Bloch cell: the line repeats once per radial period, so it
        # has P = gcd(nt, q) phases, the odd part of q on every row here,
        # and repeats every m = nt / P nodes to roundoff
        assert modes.phases == q // (q & -q)
        cells = modes.line.reshape(4, modes.phases, modes.m)
        assert np.all(np.abs(cells - cells[:, :1]).max(axis=(1, 2))
                      <= 1e-12 * np.abs(modes.line).max(axis=1))
    if ground == "positive":
        # the periodic ground state, phase 0 of mode 0 of the line (m =
        # 121), is positive to roundoff
        lam1, rho = first_eigfunction(ops)
        assert abs(lam1 - report.lambda1) < 1e-9
        assert rho.min() >= -spectral._SIGN_TOL * np.abs(rho).max()
    elif ground is not None:
        # P1: the ground level is a 9-fold cluster, one state per well of
        # the profile, so it is reported multiple.  The line splits the
        # cluster, one member per Bloch phase, and judges the ground state
        # of phase 0 alone, simple but at m = 95 still dipping to -7.7e-10
        # of its largest value
        with pytest.raises(MultiplicityWarningError, match=ground):
            first_eigfunction(ops)


def test_roundoff_on_a_simple_ground_level_is_no_sign_change():
    # P1 (5, 9) 256x64, the CLI's default --res 64: lambda1 is simple
    # (gap 3.7e-3) and the ground state vanishes nowhere but to roundoff,
    # a few 1e-17 of its largest value, which is not a sign change
    family = rotational.build_surface(rotational.find_otsuki(5, 9))
    ops = fem.assemble(fem.mesh_torus(family, 256, 64))
    lam = lowest_eigs(ops, 2).eigenvalues
    assert 1e-3 < lam[1] - lam[0] < 1e-2
    lam1, rho = first_eigfunction(ops)
    assert lam1 == lam[0]
    assert rho.min() > -1e-12 * np.abs(rho).max()
    assert morse_index(ops)[0] == 36


def test_sign_change_on_a_simple_ground_level_is_under_resolution():
    # coarse P1 (5, 9): lambda1 is simple (gap 2.6) but its computed
    # eigenvector still changes sign
    family = rotational.build_surface(rotational.find_otsuki(5, 9))
    ops = fem.assemble(fem.mesh_torus(family, 128, 32))
    lam = lowest_eigs(ops, 2).eigenvalues
    assert lam[1] - lam[0] > 2.0
    with pytest.raises(MultiplicityWarningError,
                       match="not resolved as simple at this resolution"):
        first_eigfunction(ops)


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

_MESHES = {"otsuki_op_coarse": "otsuki_mesh_coarse",
           "otsuki_op": "otsuki_mesh", "clifford_op": "clifford_mesh",
           "clifford_op_44": "clifford_mesh_44"}


def _formed(name, request):
    """The unreduced pencil of fixture name, its matrices formed whole: a
    spectral set's 2-D Kronecker reference (``conftest.kron_set``), a P1
    chart set's whole scatter (``conftest.whole_scatter``), any other set
    itself."""
    if name in _MESHES:
        return whole_scatter(request.getfixturevalue(_MESHES[name]))
    return request.getfixturevalue(name.replace("_spectral", "_kron"))


def _split(name, request):
    """The operator set of fixture name, a 2-D Kronecker set stated as the
    chart lines of its block rows 0 (``conftest.chart_set``), so that
    every set splits."""
    ops = request.getfixturevalue(name)
    if not name.endswith("_kron"):
        return ops
    return chart_set(ops, ops.size // request.getfixturevalue(
        name.replace("_kron", "_spectral")).nt)


def _sign_fixed(ops, x):
    x = x / np.sqrt(x @ (ops.Mm @ x))
    return x if np.ones(ops.size) @ (ops.Mm @ x) > 0 else -x


@pytest.mark.parametrize("name", ["otsuki_op_coarse", "otsuki_op",
                                  "otsuki_op_spectral", "clifford_op"])
def test_phi_modes_agree_with_unreduced_path(name, request):
    ops = request.getfixturevalue(name)
    full = _formed(name, request)
    if name.endswith("_spectral"):
        # the 2-D Kronecker set: the union of dense solves of its mode
        # pencils (``_mode_reference``), complex modes twice; the ground
        # state lies in mode 0, x(i, j) = u(i) / sqrt(nphi)
        modes, nphi = ops.phi_modes, full.size // ops.nt
        spectra = _mode_spectra(full, modes)
        vals = np.sort(np.concatenate(
            [np.repeat(lam, modes.multiplicity(k))
             for k, lam in enumerate(spectra)]))[:24]
        assert vals[-1] > 0.05   # the window clears every counted shift
        assert vals[0] == spectra[0][0]
        u = sla.eigh(*_mode_reference(full, modes, 0),
                     subset_by_index=[0, 0])[1]
        vecs = np.repeat(u, nphi, axis=0) / np.sqrt(nphi)
        count_below = partial(_count_below, modes, spectra)
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
    want = _sign_fixed(full, vecs[:, 0])
    if name.endswith("_spectral"):   # a line's cell vector: nodes (a, 0)
        want = want[:ops.m * nphi:nphi]
    assert np.abs(rho - want).max() < 1e-10


def test_phi_modes_carry_the_whole_spectrum(clifford_meshes, clifford_ops,
                                           otsuki_profile,
                                           clifford_op_spectral,
                                           clifford_op_kron):
    # every mode, the Nyquist one of an even side included, against a
    # dense solve of the whole pencil.  A spectral line has every mode k;
    # against its 33 x 33 Kronecker set, formed whole, its modes
    # k <= 16 hold every value below those of mode 17, the even integers
    # 2 (a^2 + k^2) - 4 up to 572 on the Clifford torus
    family = rotational.build_surface(otsuki_profile)
    small_otsuki = fem.mesh_torus(family, 40, 16)
    line = dataclasses.replace(clifford_op_spectral)
    for ops, whole, nphi, top in (
            (clifford_ops[16], whole_scatter(clifford_meshes[16]), 16, np.inf),
            (fem.assemble(small_otsuki), whole_scatter(small_otsuki), 16,
             np.inf),
            (line, clifford_op_kron, 33,
             sla.eigh(*line.pencil(0, 17), eigvals_only=True)[0] - 1.0)):
        plain = lowest_eigs(whole, whole.size)
        vals = plain.eigenvalues[plain.eigenvalues < top]
        reduced = lowest_eigs(ops, len(vals))
        assert (reduced.path, plain.path) == ("phi-modes", "dense")
        assert set(reduced.modes) == set(range(nphi // 2 + 1))
        err = np.abs(reduced.eigenvalues - vals)
        assert np.all(err <= 1e-10 * np.maximum(np.abs(vals), 1))


def test_phi_mode_vectors_are_mm_orthonormal_eigenvectors(otsuki_op):
    report = lowest_eigs(otsuki_op, 24, vectors=True)
    X = report.vectors
    assert set(report.modes) == {0, 1, 2}
    assert np.abs(X.T @ (otsuki_op.Mm @ X) - np.eye(24)).max() < 1e-10
    R = otsuki_op.B @ X - (otsuki_op.Mm @ X) * report.eigenvalues
    assert np.abs(R).max() < 1e-10


@pytest.mark.parametrize("name", ["otsuki_op_spectral",
                                  "clifford_op_spectral",
                                  "clifford_three_cells"])
def test_line_vectors_are_mm_orthonormal_eigenvectors(name, request):
    # a line forms no nodal vector: its states are the cell vectors of
    # its phase pencils (r, k), r >= 0, each diag(w)-orthonormal and an
    # eigenvector of its pencil; behind the lowest 40 values they span
    # modes 0, 1 and 2, and in mode 0 phase 0 and, on more than one
    # cell, another phase.  The Clifford profile is one Bloch cell on any
    # odd grid; run over three periods of theta (q = 3), its line on 33
    # nodes holds three
    if name == "clifford_three_cells":
        ops = fem.assemble_spectral(rotational.ProfileCurve(
            rotational.CIRCULAR_ENERGY, 1, 3, np.array([1 / 3])), 33)
    else:
        ops = dataclasses.replace(request.getfixturevalue(name))
    with pytest.raises(InvalidParameterError, match="no nodal vectors"):
        lowest_eigs(ops, 40, vectors=True)
    report = lowest_eigs(ops, 40)
    assert set(report.modes) >= {0, 1, 2}
    top = report.eigenvalues[report.modes == 0].max()
    low = [lam[0] <= top for lam, _ in ops.solved[0][1]]
    assert low[0] and any(low[1:]) == (ops.phases > 1)
    for k in set(report.modes):
        for r, (lam, U) in enumerate(ops.solved[k][1]):
            B, Mm = ops.pencil(r, k)
            assert np.abs(U.conj().T @ Mm @ U - np.eye(ops.m)).max() < 1e-10
            assert np.abs(B @ U - (Mm @ U) * lam).max() < 1e-10


def test_phi_mode_path_taken_on_chart_sets(clifford_op, clifford_op_spectral,
                                           otsuki_op, otsuki_op_spectral):
    for ops in (clifford_op, clifford_op_spectral, otsuki_op,
                otsuki_op_spectral):
        report = lowest_eigs(ops, 12)
        assert report.path == "phi-modes"
        assert len(report.modes) == 12
        assert report.to_dict()["modes"] == report.modes.tolist()


def test_phi_mode_path_refused_off_chart(sphere_op, clifford_meshes):
    assert sphere_op.phi_modes is None
    assert lowest_eigs(sphere_op, 4).path == "shift-invert"
    imported = fem.assemble(fem.mesh_from_json(
        fem.mesh_to_json(clifford_meshes[16])))
    report = lowest_eigs(imported, 4)
    assert report.path == "shift-invert" and report.modes is None
    assert report.solved_modes is None
    doc = report.to_dict()
    assert doc["modes"] is None and doc["solved_modes"] is None


def _periodic(n, diag, offsets):
    """Symmetric n x n circulant with diag on the diagonal and c at the
    offsets +-s of each (s, c) in offsets."""
    A = diag * sps.eye(n)
    for s, c in offsets:
        A = A + c * (sps.eye(n, k=s) + sps.eye(n, k=s - n)
                     + sps.eye(n, k=-s) + sps.eye(n, k=n - s))
    return A


def _synthetic_ops():
    """B = T (x) I + I (x) P and Mm = Mt (x) Mphi on a 6 x 8 grid, formed
    whole; ``conftest.chart_set(ops, 8)`` splits it."""
    nt, nphi = 6, 8
    T = _periodic(nt, 0.6, [(1, -0.3)])
    P = _periodic(nphi, 0.7, [(1, 0.25), (2, -1.0)])
    Mt = _periodic(nt, 4 / 6, [(1, 1 / 6)])
    Mphi = _periodic(nphi, 4 / 6, [(1, 1 / 6)])
    B = (sps.kron(T, sps.eye(nphi)) + sps.kron(sps.eye(nt), P)).tocsr()
    Mm = sps.kron(Mt, Mphi).tocsr()
    return fem.OperatorSet(K=B, Mm=Mm, W=sps.csr_matrix(B.shape), n=2,
                           q_max=10.0)


def test_phi_mode_sweep_finds_a_lowest_mode_past_certified_ones():
    # B = T (x) I + I (x) P on a 6 x 8 grid, where the phi circulant P has
    # symbol 0.7 + cos(theta) / 2 - 2 cos(2 theta) over modes k = 0..4:
    # -0.8, 1.05, 2.7, 0.35 and -1.8, so the lowest eigenvalue lies in
    # the Nyquist mode k = 4, past modes that Cholesky certifies
    whole, nphi = _synthetic_ops(), 8
    ops = chart_set(whole, nphi)
    exact = sla.eigh(whole.B.toarray(), whole.Mm.toarray(), eigvals_only=True)
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
    plain_index, plain = morse_index(whole)
    # the window nearest -zero_tol misses the Nyquist values, so the
    # counted window of the whole set is solved once from below
    assert plain.path == "shift-invert"
    assert (index, report.nullity) == (plain_index, plain.nullity) == (
        (exact < -0.05).sum(), (np.abs(exact) <= 0.05).sum())


def test_phi_mode_ties_are_listed_by_mode():
    # the lowest values of modes 0 and 2 one ulp apart, once in each
    # order: a tie, so the list of modes must not depend on the rounding
    eye = sps.identity(16, format="csr")
    lo, hi = -4.0, np.nextafter(-4.0, 0.0)
    lists = []
    for a, b in ((lo, hi), (hi, lo)):
        modes = spectral.PhiModes(2, 8, eye[::8], eye[::8])
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
    line = isinstance(ops, spectral.TwistedLine)
    # fresh copies: the mode caches of the session fixture stay out.  A
    # line has no size; asked for as many values as its 255 x 17
    # Kronecker set holds, it solves every mode up to the end of its sweep
    every = dataclasses.replace(ops)
    full = lowest_eigs(every, 255 * 17 if line else ops.size)
    solved = sorted(every.phi_modes.solved)
    assert solved == list(range(len(solved) if line else ops.phi_modes.count))
    # on Clifford 64^2 the tenth value, 4.032, is shared by modes 0 and 2
    # (the square grid is symmetric under t <-> phi): a certificate taken
    # exactly at tau would pass or fail on rounding
    for count in (10, 32):
        cut = dataclasses.replace(ops)
        with mock.patch.object(spectral.sla, "eigh", wraps=sla.eigh) as eigh:
            report = lowest_eigs(cut, count)
            index, window = morse_index(cut)
        modes = cut.phi_modes
        # Clifford is circulant in theta too: its modes are solved in
        # closed form, with no dense eigensolve; a spectral line solves a
        # mode by one dense eigensolve per phase r >= 0
        closed = name == "clifford_op"
        assert (getattr(modes, "symbols", None) is not None) == closed
        per_mode = getattr(modes, "phases", 1) // 2 + 1
        assert eigh.call_count == (0 if closed
                                   else per_mode * len(modes.solved))
        assert len(modes.solved) < len(every.phi_modes.solved)
        for rep in (report, window):
            size = len(rep.eigenvalues)
            assert np.abs(rep.eigenvalues
                          - full.eigenvalues[:size]).max() <= 1e-12
            assert np.array_equal(rep.modes, full.modes[:size])
        assert (index, window.nullity) == (
            (full.eigenvalues < -0.05).sum(),
            (np.abs(full.eigenvalues) <= 0.05).sum())
        # every mode left unsolved before the end of the sweep carries a
        # certificate at or above the largest value returned; a line's
        # sweep ends at the first mode whose bound clears that value, with
        # no mode before it left unsolved
        tau = max(report.eigenvalues[-1], window.eigenvalues[-1])
        end = (next(k for k in itertools.count() if modes.positive(k, tau))
               if line else modes.count)
        unsolved = sorted(set(range(end)) - set(modes.solved))
        assert not unsolved if line else unsolved
        assert all(modes.certified[k] >= tau for k in unsolved)


def _mode_reference(ops, modes, k):
    """Dense (B_k, Mm_k) of mode k of the split modes projected from the
    whole pencil ops on an nt x nphi grid: U^H A U with
    U = I (x) e^(2 pi i j k / nphi) / sqrt(nphi)."""
    nt, nphi = modes.nt, ops.size // modes.nt
    f = np.exp(2j * np.pi * np.arange(nphi) * k / nphi) / np.sqrt(nphi)
    if (2 * k) % nphi == 0:
        f = f.real
    U = sps.kron(sps.identity(nt), f[:, None]).tocsc()
    return [(U.conj().T @ (A @ U)).toarray() for A in (ops.B, ops.Mm)]


def _mode_spectra(ops, modes):
    """Dense eigh spectrum of every mode pencil k <= nphi // 2 of the
    split modes, projected from the whole pencil ops on an nt x nphi grid
    (``_mode_reference``)."""
    return [sla.eigh(*_mode_reference(ops, modes, k), eigvals_only=True)
            for k in range(ops.size // modes.nt // 2 + 1)]


def _count_below(modes, spectra, shift):
    return sum(modes.multiplicity(k) * int((lam < shift).sum())
               for k, lam in enumerate(spectra))


def test_mode_signature_cholesky_fast_path(request):
    shifts = np.r_[-3.0, -0.05, 0.05, 4.5,
                   np.random.default_rng(11).uniform(-8.0, 6.0, 10)]
    for name in ("otsuki_op_coarse", "clifford_op"):
        ops = request.getfixturevalue(name)
        modes = ops.phi_modes
        spectra = _mode_spectra(_formed(name, request), modes)
        fallbacks = 0
        for sigma in shifts:
            with mock.patch.object(spectral, "_signature",
                                   wraps=spectral._signature) as sig:
                fast = spectral._mode_signature(modes, sigma)
            assert fast == _count_below(modes, spectra, sigma), (name, sigma)
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
                assert spectral._mode_signature(modes, shift) is None
            assert sig.call_count == 1   # mode 0, the first, stopped the sum
            with mock.patch.object(spectral, "_mode_signature",
                                   wraps=spectral._mode_signature) as retry:
                count = inertia_below(ops, shift)
            assert retry.call_count > 1 and count == 1, name


@pytest.mark.parametrize("p, q, nt", [(2, 3, 255), (3, 5, 425),
                                     (5, 9, 855)])
def test_line_cutoff_falls_back_to_phase_cholesky(p, q, nt):
    # the pointwise bound of mode 1 fails just above lambda1, and a
    # Cholesky factorization of each shifted phase pencil certifies it
    # there instead: the lowest value needs mode 0 alone
    ops = fem.assemble_spectral(rotational.find_otsuki(p, q), nt)
    report = lowest_eigs(ops, 1)
    assert report.solved_modes == (0,)
    tau = report.eigenvalues[0]
    shift = tau + spectral._CERTIFY_GAP * max(abs(tau), 1.0)
    assert not ops.positive(1, shift) and ops._excludes(1, shift)
    # mode 1 is certified, and the sweep ends at the first mode whose
    # bound clears the shift
    end = next(k for k in itertools.count() if ops.positive(k, shift))
    assert end > 1 and set(ops.certified) == set(range(1, end))
    assert all(ops.certified[k] >= tau for k in ops.certified)
    # below an eigenvalue of the mode no factorization passes
    lam = sla.eigh(*ops.pencil(0, 1), eigvals_only=True)[0]
    assert not ops._excludes(1, lam + 1e-6 * max(abs(lam), 1.0))


@pytest.mark.parametrize("name", ["otsuki_op_spectral",
                                  "clifford_op_spectral"])
def test_line_signature_counts_every_phase(name, request):
    # a spectral line counts by the pivot signatures of its shifted phase
    # pencils, phase r > 0 for -r too; its sweep ends at the first mode
    # whose pointwise bound k^2 / g_22 - q clears the shift, and no mode
    # from there on has a value below the shift.  Against dense solves of
    # the mode pencils k <= nphi // 2 of the 2-D Kronecker set
    ops = request.getfixturevalue(name)
    line = ops.phi_modes
    spectra = _mode_spectra(_formed(name, request), line)
    shifts = np.r_[-3.0, -0.05, 0.05, 4.5,
                   np.random.default_rng(11).uniform(-8.0, 6.0, 10)]
    for sigma in shifts:
        with mock.patch.object(spectral, "_signature",
                               wraps=spectral._signature) as sig:
            count = spectral._mode_signature(line, sigma)
        assert count == _count_below(line, spectra, sigma), sigma
        end = next(k for k in itertools.count()
                   if line.positive(k, sigma, 1e-12))
        assert end < len(spectra)
        assert sig.call_count == (line.phases // 2 + 1) * end
        assert all(spectra[k][0] > sigma for k in range(end, len(spectra)))
    # on the ground value of phase 0, where the shifted pencil is singular
    # to rounding, there is no count, and the jitter retry takes over
    lam = sla.eigh(*line.pencil(0, 0), eigvals_only=True)[0]
    assert spectral._mode_signature(line, lam) is None
    with mock.patch.object(spectral, "_mode_signature",
                           wraps=spectral._mode_signature) as retry:
        count = inertia_below(ops, lam)
    assert retry.call_count > 1 and count == 1


def test_signature_flags_pivot_growth(otsuki_op_coarse, request):
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
    spectra = _mode_spectra(_formed("otsuki_op_coarse", request), modes)
    lead = sla.eigh(Bk[:m, :m], Mk[:m, :m], eigvals_only=True)
    mu = lead[lead > spectra[k][0]][0]
    assert np.abs(spectra[k] - mu).min() > 0.03
    order = np.arange(modes.nt)
    flagged = 0
    for sigma in mu + np.logspace(-14, -3, 12):
        A = sps.csc_matrix(spectral._unband(modes.band(k, sigma)))
        d = spectral._ordered_factor(A, order)[0].real
        signature = spectral._signature(A, order)
        if signature is not None:
            assert signature[0] == (spectra[k] < sigma).sum()
        elif np.abs(d).min() > 1e-12 * np.abs(A.data).max():
            flagged += 1
        assert inertia_below(ops, sigma) == _count_below(modes, spectra,
                                                         sigma)
    assert flagged >= 1


def test_probe_vector_is_read_only(sphere_op):
    # the cached probe is shared by every roundoff check of the same size,
    # so a write would change later counts; writing to it raises instead
    inertia_below(sphere_op, 0.05)
    b = spectral._probe(sphere_op.size)
    assert b is spectral._probe(sphere_op.size)
    with pytest.raises(ValueError, match="read-only"):
        b[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        b *= 2.0


@pytest.mark.parametrize("name", ["otsuki_op_coarse", "clifford_op",
                                  "otsuki_op_kron", "synthetic"])
def test_banded_certificate_brackets_every_mode(name, request):
    # the 2-D Kronecker spectral set splits into dense mode blocks
    ops = (chart_set(_synthetic_ops(), 8) if name == "synthetic"
           else _split(name, request))
    modes = ops.phi_modes
    nt = modes.nt
    assert modes.kd == (nt - 1 if name.endswith("_kron") else 2)
    # the interleaved order 0, nt-1, 1, nt-2, ...
    i = np.arange(nt)
    order = np.argsort(np.minimum(2 * i, 2 * (nt - 1 - i) + 1))
    whole = (_synthetic_ops() if name == "synthetic"
             else _formed(name, request))
    for k in range(modes.count):
        Bk, Mk = _mode_reference(whole, modes, k)
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


@pytest.mark.parametrize("name", ["clifford_op_44", "clifford_op",
                                  "clifford_op_kron"])
def test_closed_form_agrees_with_every_mode_pencil(name, request):
    # a set circulant in theta as well as in phi has every mode in closed
    # form: its values match a dense solve of the mode pencil, its
    # columns are Mm_k-orthonormal eigenvectors, and its symbol
    # certificate brackets the lowest value of each mode as the banded
    # Cholesky one does
    ops = dataclasses.replace(_split(name, request))
    modes = ops.phi_modes
    assert modes.symbols is not None
    whole = _formed(name, request)
    for k in range(modes.count):
        lam, U = modes._solve(k)
        Bk, Mk = modes.pencil(k)
        exact = sla.eigh(Bk, Mk, eigvals_only=True)
        assert np.all(np.abs(lam - exact)
                      <= 1e-12 * np.maximum(np.abs(exact), 1.0)), k
        assert np.abs(U.conj().T @ Mk @ U - np.eye(modes.nt)).max() < 1e-10
        assert np.abs(Bk @ U - (Mk @ U) * lam).max() < 1e-10
        mu = sla.eigh(*_mode_reference(whole, modes, k), eigvals_only=True,
                      subset_by_index=[0, 0])[0]
        gap = 1e-6 * max(abs(mu), 1.0)
        assert modes._excludes(k, mu - gap)
        assert not modes._excludes(k, mu + gap)
    report = lowest_eigs(ops, 24, vectors=True)
    X = report.vectors
    assert np.abs(X.T @ (ops.Mm @ X) - np.eye(24)).max() < 1e-10
    R = ops.B @ X - (ops.Mm @ X) * report.eigenvalues
    assert np.abs(R).max() < 1e-10


def _band_path(ops):
    """morse_index of a fresh copy of ops with the closed form refused."""
    with mock.patch.object(spectral, "_theta_symbols", return_value=None):
        fresh = dataclasses.replace(ops)
        answer = morse_index(fresh)
    assert fresh.phi_modes.symbols is None
    return answer


@pytest.mark.parametrize("name", ["clifford_op_44", "clifford_op",
                                  "clifford_128", "clifford_op_kron"])
def test_closed_form_morse_index_matches_the_band_path(name, request,
                                                       clifford_family):
    # no dense eigensolve, the counts still read from band pivots, and
    # the answer of the dense solves of the band path
    ops = (fem.assemble(fem.mesh_torus(clifford_family, 128, 128))
           if name == "clifford_128" else _split(name, request))
    closed = dataclasses.replace(ops)
    with mock.patch.object(sla, "eigh", wraps=sla.eigh) as eigh, \
            mock.patch.object(spectral, "_signature",
                              wraps=spectral._signature) as signature:
        index, report = morse_index(closed)
    assert eigh.call_count == 0 and signature.call_count > 0
    assert closed.phi_modes.symbols is not None
    band_index, band = _band_path(ops)
    assert (index, report.nullity, report.solved_modes) == (
        band_index, band.nullity, band.solved_modes)
    assert np.array_equal(report.modes, band.modes)
    assert np.abs(report.eigenvalues - band.eigenvalues).max() <= 1e-11


def test_closed_form_refused_where_theta_invariance_fails(
        clifford_op_44, otsuki_op_coarse, otsuki_op, request):
    # the diagonal entry of node row 5 of W bent by 1e-9 relative, past
    # _SHIFT_TOL of the largest entry of B: no closed form, and the dense
    # solves of the band path, bit for bit
    nt, nphi = 44, 44
    row = clifford_op_44.W.row.tolil()
    row[5, 5 * nphi] *= 1 + 1e-9
    bent = dataclasses.replace(clifford_op_44,
                               W=spectral.ChartLine(row.tocsr(), nphi))
    assert spectral._first_unshifted_row(bent.B.row, nt, nphi) == 5
    assert bent.phi_modes.symbols is None
    with mock.patch.object(sla, "eigh", wraps=sla.eigh) as eigh:
        index, report = morse_index(bent)
    assert eigh.call_count == len(report.solved_modes) > 0
    band_index, band = _band_path(bent)
    assert (index, report.nullity, report.solved_modes) == (
        band_index, band.nullity, band.solved_modes)
    assert report.modes.tobytes() == band.modes.tobytes()
    assert report.eigenvalues.tobytes() == band.eigenvalues.tobytes()
    # Otsuki varies in t: the check, one sort of every row at once, stops
    # at node row 1, and no set is put in closed form
    for ops in (otsuki_op_coarse, otsuki_op,
                _split("otsuki_op_kron", request)):
        row, nt, nphi = ops.B.row, ops.B.row.shape[0], ops.B.nphi
        with mock.patch.object(np, "argsort", wraps=np.argsort) as sort:
            assert spectral._first_unshifted_row(row, nt, nphi) == 1
        assert sort.call_count == 1
        assert ops.phi_modes.symbols is None


def _row_by_row(row, nt, nphi):
    """_first_unshifted_row by a plain scan: each node row moved back to
    row 0 and compared with it in turn."""
    R = row.tocsr()
    tol = spectral._SHIFT_TOL * np.abs(R.data).max()

    def moved_back(i):
        l, s = np.divmod(R.indices[R.indptr[i]:R.indptr[i + 1]], nphi)
        key = (l - i) % nt * nphi + s
        o = np.argsort(key)
        return key[o], R.data[R.indptr[i]:R.indptr[i + 1]][o]
    key0, val0 = moved_back(0)
    for i in range(1, nt):
        key, val = moved_back(i)
        if (len(key) != len(key0) or np.any(key != key0)
                or np.any(np.abs(val - val0) > tol)):
            return i
    return nt


def test_first_unshifted_row_matches_a_row_by_row_scan(
        clifford_op_44, clifford_family, otsuki_op):
    # the one-pass check returns the index of a plain scan on the block
    # rows of B and Mm, also where a row is bent or has another width
    clifford_128 = fem.assemble(fem.mesh_torus(clifford_family, 128, 128))
    nt, nphi = 44, 44
    bent = clifford_op_44.W.row.tolil()
    bent[7, 7 * nphi] *= 1 + 1e-9
    wider = clifford_op_44.Mm.row.tolil()
    wider[9, 3] = 1e-3
    rows = [((A.row.shape[0], A.nphi), A.row)
            for ops in (clifford_op_44, clifford_128, otsuki_op)
            for A in (ops.B, ops.Mm)]
    rows += [((nt, nphi), bent.tocsr()), ((nt, nphi), wider.tocsr())]
    found = [spectral._first_unshifted_row(row, *shape)
             for shape, row in rows]
    assert found == [_row_by_row(row, *shape) for shape, row in rows]
    assert found == [44, 44, 128, 128, 1, 1, 7, 9]


@pytest.mark.parametrize("size, solved", [(None, [0, 1]), (128, [0, 1, 2])],
                         ids=["otsuki", "clifford"])
def test_morse_index_reports_its_solved_modes(size, solved, otsuki_op,
                                              clifford_family):
    # P1 Otsuki 256x64 solves modes 0 and 1 by a dense eigensolve for its
    # counted window of 18, Clifford 128^2 modes 0, 1 and 2 for its 16;
    # the other 31 and 62 are certified
    if size is None:
        ops = dataclasses.replace(otsuki_op)   # empty mode caches
    else:
        ops = fem.assemble(fem.mesh_torus(clifford_family, size, size))
    _, report = morse_index(ops)
    assert report.solved_modes == tuple(sorted(ops.phi_modes.solved))
    assert report.to_dict()["solved_modes"] == solved


def test_morse_index_solves_the_counted_window(otsuki_op, clifford_op_44):
    # one sweep counts c- = 12 values below -zero_tol and c+ = 17 below
    # +zero_tol on P1 Otsuki (2, 3) 256x64, so the window holds
    # c+ + 1 = 18 values, from two dense eigensolves of modes 0 and 1,
    # and is a bitwise prefix of the window of 32 that mode 2 joins
    ops = dataclasses.replace(otsuki_op)   # empty mode caches
    with mock.patch.object(sla, "eigh", wraps=sla.eigh) as eigh:
        index, report = morse_index(ops)
    assert (index, report.nullity) == (12, 5)
    assert len(report.eigenvalues) == 18
    assert (report.solved_modes, eigh.call_count) == ((0, 1), 2)
    assert not report.window_saturated
    wider = lowest_eigs(dataclasses.replace(otsuki_op), 32)
    assert wider.solved_modes == (0, 1, 2)
    assert report.eigenvalues.tobytes() == wider.eigenvalues[:18].tobytes()
    # Clifford 44^2 counts c+ = 9, so its window keeps the 16 values
    ops = dataclasses.replace(clifford_op_44)
    assert inertia_below(ops, 0.05) == 9
    index, report = morse_index(ops)
    assert (index, report.nullity, len(report.eigenvalues)) == (5, 4, 16)


def _positive_pivot(d):
    return np.flatnonzero(d > 0)[0]


def _negative_pivot(d):
    return np.flatnonzero(d < 0)[0]


@pytest.mark.parametrize("name, at, flip, message", [
    ("otsuki_op_coarse", 0.05, _positive_pivot, "nullity mismatch: "
     "eigensolver 3, factorization 4"),
    ("otsuki_op_coarse", 0.05, _negative_pivot, "nullity mismatch: "
     "eigensolver 3, factorization 2"),
    ("otsuki_op_coarse", -0.05, _positive_pivot, "index mismatch: "
     "eigensolver 12, factorization 13"),
    ("otsuki_op_coarse", -0.05, _negative_pivot, "index mismatch: "
     "eigensolver 12, factorization 11"),
    ("clifford_op_44", 0.05, _positive_pivot, "nullity mismatch: "
     "eigensolver 4, factorization 5"),
    ("clifford_op_44", 0.05, _negative_pivot, "nullity mismatch: "
     "eigensolver 4, factorization 3"),
    ("clifford_op_44", -0.05, _positive_pivot, "index mismatch: "
     "eigensolver 5, factorization 6"),
    ("clifford_op_44", -0.05, _negative_pivot, "index mismatch: "
     "eigensolver 5, factorization 4"),
], ids=["nullity-overcount", "nullity-undercount", "index-overcount",
        "index-undercount", "clifford-nullity-overcount",
        "clifford-nullity-undercount", "clifford-index-overcount",
        "clifford-index-undercount"])
def test_phi_mode_count_checks_are_two_sided(name, at, flip, message,
                                             request):
    # P1 Otsuki (2, 3) 128x32 has index 12 and nullity 3, P1 Clifford
    # 44^2 index 5 and nullity 4, its window solved in closed form.  One
    # pivot's sign flipped in the signature of mode 0, the first mode the
    # count sweep factors, at one end of the zero window, the eigensolve
    # left alone: c+ at +zero_tol checks the nullity, c- at -zero_tol the
    # index, and neither miscount may be reconciled by the window
    ops = dataclasses.replace(request.getfixturevalue(name))   # empty caches
    band, factor = spectral.PhiModes.band, spectral._ordered_factor
    shifts, flipped = [], []

    def recording(self, k, shift):
        shifts.append(shift)
        return band(self, k, shift)

    def flipping(A, order):
        d, solve = factor(A, order)
        if np.sign(shifts[-1]) == np.sign(at) and not flipped:
            d = d.copy()
            d[flip(d.real)] *= -1
            flipped.append(True)
        return d, solve
    with mock.patch.object(spectral.PhiModes, "band", recording), \
            mock.patch.object(spectral, "_ordered_factor", flipping):
        with pytest.raises(NumericalFailureError, match=message):
            morse_index(ops)
    assert flipped == [True]
    assert (ops.phi_modes.symbols is not None) == (name == "clifford_op_44")


def test_signature_counts_complex_hermitian(otsuki_op_coarse, request):
    # a known inertia, 7 negative and 13 positive eigenvalues, in a
    # random elimination order
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20))
                        + 1j * rng.standard_normal((20, 20)))
    d = np.concatenate([-np.arange(1.0, 8.0), np.arange(1.0, 14.0)])
    H = (Q * d) @ Q.conj().T
    H = sps.csc_matrix((H + H.conj().T) / 2)
    assert spectral._signature(H, rng.permutation(20))[0] == 7
    # exactly singular: the second pivot of [[1, i], [-i, 1]] is 1 - 1
    S = sps.block_diag([sps.csc_matrix([[1.0, 1j], [-1j, 1.0]]), H],
                       format="csc")
    assert spectral._signature(S, np.arange(22)) is None
    # the band of a complex mode, unpacked, against its dense eigh count
    modes = otsuki_op_coarse.phi_modes
    k, sigma = 1, -1.0
    A = sps.csc_matrix(spectral._unband(modes.band(k, sigma)))
    assert np.abs(A.data.imag).max() > 0
    whole = _formed("otsuki_op_coarse", request)
    expected = int((sla.eigh(*_mode_reference(whole, modes, k),
                             eigvals_only=True) < sigma).sum())
    assert expected > 0
    assert spectral._signature(A, np.arange(modes.nt))[0] == expected


def test_spectral_otsuki_exact_landmarks(otsuki_op_spectral):
    # Otsuki (2, 3) on the spectral line of 255 nodes: -n = -2 has
    # multiplicity 4, the rank of span{f_v}, and 0 has multiplicity 5,
    # 6 - 1 for the Killing fields; index 12
    index, report = morse_index(otsuki_op_spectral)
    assert (index, report.nullity) == (12, 5)
    vals, modes = report.eigenvalues, report.modes
    for value, expected in ((-2.0, [0, 0, 1, 1]), (0.0, [0, 1, 1, 1, 1])):
        near = np.abs(vals - value) < 1e-11
        assert sorted(modes[near]) == expected


def test_spectral_otsuki_single_bloch_phase(otsuki_profile,
                                            otsuki_op_spectral):
    # nt = 257 is prime to q = 3: the line is one Bloch cell, P = 1, and
    # one dense pencil per mode gives the index, the nullity and lambda1
    # of the three-phase line of 255 nodes
    ops = fem.assemble_spectral(otsuki_profile, 257)
    assert (ops.phases, ops.m) == (1, 257)
    index, report = morse_index(ops)
    assert (index, report.nullity) == (12, 5)
    ref = lowest_eigs(otsuki_op_spectral, 1).lambda1
    assert abs(report.lambda1 - ref) <= 1e-9


def test_line_matches_the_clifford_spectrum_past_any_phi_grid(
        clifford_op_spectral):
    # the Clifford line on 33 nodes resolves the theta-modes |a| <= 16 and
    # has every phi-mode b: its values are 2 (a^2 + b^2) - 4, and 1200 of
    # them, more than a 33 x 33 grid holds, reach mode 20
    line = dataclasses.replace(clifford_op_spectral)
    a, b = np.meshgrid(np.arange(-16, 17), np.arange(-40, 41))
    exact = np.sort(2.0 * (a ** 2 + b ** 2) - 4.0, axis=None)
    report = lowest_eigs(line, 1200)
    assert max(report.modes) >= 20
    err = np.abs(report.eigenvalues - exact[:1200])
    assert np.all(err <= 1e-10 * np.maximum(np.abs(exact[:1200]), 1.0))
    for sigma, count in ((-3.0, 1), (0.05, 9), (40.5, 69), (150.5, 241),
                         (400.5, 641)):
        assert count == int((exact < sigma).sum())
        assert inertia_below(line, sigma) == count


def _mode_calls(method):
    """A patch of the TwistedLine method (k, ...) that logs the mode k of
    each call, and the log."""
    calls, plain = [], getattr(spectral.TwistedLine, method)

    def logged(self, k, *args):
        calls.append(k)
        return plain(self, k, *args)
    return mock.patch.object(spectral.TwistedLine, method, logged), calls


@pytest.mark.parametrize("p, q, nt", [(2, 3, 255), (5, 9, 855)])
def test_line_sweep_stop_hides_nothing(p, q, nt):
    # morse_index looks at no mode past 2, where the pointwise bound
    # clears the window top tau; the dense spectra of every phase pencil
    # of modes 2 .. 7 lie above tau all the same
    line = fem.assemble_spectral(rotational.find_otsuki(p, q), nt)
    patch, calls = _mode_calls("positive")
    with patch:
        _, report = morse_index(line)
    assert max(calls) == 2 and report.solved_modes == (0, 1)
    tau = report.eigenvalues[-1]
    for k in range(2, 8):
        for r in range(line.phases // 2 + 1):
            assert sla.eigh(*line.pencil(r, k), eigvals_only=True)[0] > tau
    # at a shift just below the bound's edge sigma* in mode 2, the bound
    # clears it plainly but not above its 1e-12 floor, so a count still
    # takes the pivot signatures of mode 2, against dense solves
    w, d = line.line[0, :line.m], line._diagonal(2)
    edge = int(np.argmin(d / w))
    level = 1e-12 * max(np.abs(d - d[edge] / w[edge] * w).max(), 1.0)
    sigma = d[edge] / w[edge] - 0.5 * level / w[edge]
    assert line.positive(2, sigma) and not line.positive(2, sigma, 1e-12)
    patch, shifted = _mode_calls("shifted")
    with patch:
        count = spectral._mode_signature(line, sigma)
    assert 2 in shifted
    assert count == sum(
        line.multiplicity(k) * (2 if r else 1) * int((sla.eigh(
            *line.pencil(r, k), eigvals_only=True) < sigma).sum())
        for k in range(8) for r in range(line.phases // 2 + 1))
