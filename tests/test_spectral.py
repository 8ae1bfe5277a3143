"""Eigenvalue solves and inertia counting for the stability pencil."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from mhs import fem, rotational, spectral
from mhs.closedform import clifford_jacobi, equator_jacobi
from mhs.errors import InvalidParameterError, MultiplicityWarningError
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
    # 32x32 -> 1024 unknowns exercises the dense path once the phi-mode
    # split is withheld; force the sparse path on the same matrices and
    # compare
    ops = dataclasses.replace(clifford_ops[32], grid_shape=None)
    dense = inertia_below(ops, -0.05)
    import mhs.spectral as sp
    A = (ops.B + 0.05 * ops.Mm).tocsc()
    sparse, ok = sp._sparse_signature(A, max(np.abs(A.data).max(), 1.0))
    assert ok and sparse == dense == 5


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


def test_morse_index_cross_validates(clifford_op, sphere_op):
    assert morse_index(clifford_op)[0] == 5
    assert morse_index(sphere_op)[0] == 1


def test_otsuki_index(otsuki_op):
    idx, report = morse_index(otsuki_op)
    assert idx >= 6
    assert inertia_below(otsuki_op, -0.05) == idx


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
    plain = lowest_eigs(full, 24, vectors=True)
    assert plain.path == "shift-invert" and not plain.window_saturated
    reduced = lowest_eigs(ops, 24)
    assert reduced.path == "phi-modes"
    assert np.abs(reduced.eigenvalues - plain.eigenvalues).max() < 1e-10
    index, report = morse_index(ops)
    assert (index, report.nullity) == (plain.index, plain.nullity)
    for sigma in (-3.0, -0.05, 0.05):
        assert inertia_below(ops, sigma) == inertia_below(full, sigma)
    lam1, rho = first_eigfunction(ops)
    assert abs(lam1 - plain.lambda1) < 1e-10
    assert np.abs(rho - _sign_fixed(full, plain.vectors[:, 0])).max() < 1e-10


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
    assert report.path == "dense" and report.modes is None
    assert report.to_dict()["modes"] is None
    # one potential entry off by 1e-6 breaks the phi-shift invariance:
    # the split must be refused, and the answer must not change
    ops = clifford_ops[32]
    W = ops.W.tolil()
    W[37, 37] += 1e-6
    bent = dataclasses.replace(ops, W=W.tocsr())
    assert bent.phi_modes is None
    index, report = morse_index(bent)
    assert report.path == "dense"
    assert index == morse_index(_unreduced(ops))[0] == 5


def test_signature_counts_complex_hermitian():
    # zero diagonal forces 2x2 pivots with complex off-diagonal entries
    rng = np.random.default_rng(5)
    n = 30
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = X + X.conj().T
    np.fill_diagonal(H, 0.0)
    expected = int((np.linalg.eigvalsh(H) < 0).sum())
    _, D, _ = sla.ldl(H)
    assert np.iscomplexobj(D)
    assert np.abs(np.diag(D, -1)).max() > 0   # a 2x2 block is present
    assert spectral._signature_negatives(D, np.abs(H).max()) == (expected,
                                                                 True)
    # a known inertia: 7 negative and 13 positive eigenvalues
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20))
                        + 1j * rng.standard_normal((20, 20)))
    d = np.concatenate([-np.arange(1.0, 8.0), np.arange(1.0, 14.0)])
    H = (Q * d) @ Q.conj().T
    _, D, _ = sla.ldl((H + H.conj().T) / 2)
    assert spectral._signature_negatives(D, 13.0) == (7, True)
