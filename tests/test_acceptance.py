"""Acceptance suite: one pass/fail line per criterion.

Each test prints its verdict before asserting, so a full run (-s) shows
the complete scoreboard even when an individual criterion fails.
"""

import time

import numpy as np

from mhs import paperlab
from mhs.closedform import clifford_jacobi, equator_jacobi
from mhs.geometry import check_minimality
from mhs.paperlab import (chain_sweep, conjecture_probe, gauss_identities,
                          lemma_check, theorem_check, trial_span)
from mhs.rotational import build_surface
from mhs.spectral import lowest_eigs, morse_index


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_closed_form_index_table():
    t0 = time.time()
    ok = True
    for n in range(2, 13):
        ok &= equator_jacobi(n)[1] == 1
        for k in range(1, n):
            ok &= clifford_jacobi(n, k)[1] == n + 3
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _verdict(1, ok, f"closed-form indices n+3 / 1 for n=2..12 "
                    f"({elapsed:.2f}s)")


def test_criterion_2_fem_clifford(clifford_op):
    report = lowest_eigs(clifford_op, count=12, zero_tol=0.05)
    ok = (report.index == 5
          and abs(report.lambda1 + 4.0) <= 5e-2
          and report.nullity == 4)
    _verdict(2, ok, f"product torus 64x64: index={report.index}, "
                    f"lambda1={report.lambda1:.4f}, nullity={report.nullity}")


def test_criterion_3_fem_equator(sphere_op):
    report = lowest_eigs(sphere_op, count=8, zero_tol=0.05)
    ok = report.index == 1 and abs(report.lambda1 + 2.0) <= 5e-2
    _verdict(3, ok, f"geodesic sphere: index={report.index}, "
                    f"lambda1={report.lambda1:.4f}")


def test_criterion_4_eigenvalue_convergence(clifford_ops):
    reports = {res: lowest_eigs(ops, count=9)
               for res, ops in sorted(clifford_ops.items())}
    # Galerkin monotonicity of every tracked eigenvalue
    mono = all(
        np.all(reports[b].eigenvalues <= reports[a].eigenvalues + 1e-12)
        for a, b in ((16, 32), (32, 64)))
    lam1_err = {res: abs(r.lambda1 + 4.0) for res, r in reports.items()}
    if max(lam1_err.values()) < 1e-9:
        # the ground state is a constant vector, represented exactly at
        # every resolution, so its convergence order is undefined;
        # measure the rate on the first non-constant band instead
        band_err = {res: abs(r.eigenvalues[1] + 2.0)
                    for res, r in reports.items()}
        orders = [np.log2(band_err[a] / band_err[b])
                  for a, b in ((16, 32), (32, 64))]
        note = "ground level exact at machine precision; first band"
    else:
        orders = [np.log2(lam1_err[a] / lam1_err[b])
                  for a, b in ((16, 32), (32, 64))]
        note = "ground level"
    ok = mono and all(1.7 <= o <= 2.3 for o in orders)
    _verdict(4, ok, f"convergence order {note}: "
                    f"{[round(float(o), 2) for o in orders]}, "
                    f"monotone={mono}")


def test_criterion_5_identity_suite(clifford_mesh, otsuki_mesh,
                                    otsuki_mesh_coarse):
    ok = True
    details = []
    for mesh in (clifford_mesh, otsuki_mesh_coarse, otsuki_mesh):
        r = gauss_identities(mesh)
        tol = 1e-4 * r.area
        good = r.int_l <= tol and r.int_asq_f <= tol and r.pair <= tol
        ok &= good
        details.append(f"{mesh.name}: max residual "
                       f"{max(r.int_l, r.int_asq_f, r.pair):.2e}")
    coarse = gauss_identities(otsuki_mesh_coarse)
    fine = gauss_identities(otsuki_mesh)
    floor = 1e-13 * fine.area
    for name in ("int_l", "int_asq_f", "pair"):
        ok &= getattr(fine, name) <= max(getattr(coarse, name) / 3.0, floor)
    _verdict(5, ok, "; ".join(details) + "; >=3x decrease under refinement")


def test_criterion_6_lemma_ranks(otsuki_mesh, otsuki_op, clifford_mesh,
                                 clifford_op, sphere_mesh, sphere_op):
    r_o = lemma_check(trial_span(otsuki_mesh, otsuki_op))[0]
    r_c = lemma_check(trial_span(clifford_mesh, clifford_op))[0]
    r_s = lemma_check(trial_span(sphere_mesh, sphere_op))[0]
    ok = (r_o, r_c, r_s) == (9, 5, 4)
    _verdict(6, ok, f"trial-space ranks: rotational={r_o} (expect 9), "
                    f"product={r_c} (expect 5), geodesic={r_s} (expect 4)")


def test_criterion_7_chain_identity_and_ordering(
        clifford_mesh, clifford_op, sphere_mesh, sphere_op,
        otsuki_mesh, otsuki_op, clifford_mesh_odd, clifford_op_spectral,
        otsuki_mesh_odd, otsuki_op_spectral):
    # The ordering L0 <= L1 substitutes Delta l_v = -n l_v,
    # Delta f_v = -|A|^2 f_v and lambda1 <= -2n.  P1 elements meet the
    # first two only to O(h^2), so the ordering is asserted on the
    # spectral operator sets; the P1 margins are printed beside them.
    ok = True
    details = []
    for method, mesh, ops, asserted in (
            ("P1", clifford_mesh, clifford_op, False),
            ("P1", sphere_mesh, sphere_op, True),
            ("P1", otsuki_mesh, otsuki_op, False),
            ("spectral", clifford_mesh_odd, clifford_op_spectral, True),
            ("spectral", otsuki_mesh_odd, otsuki_op_spectral, True)):
        records, _ = chain_sweep(trial_span(mesh, ops), draws=100, seed=0)
        worst_id = max(r.residual_identity / r.scale for r in records)
        ok &= worst_id <= 1e-10
        lam1 = records[0].lambda1
        head = f"{method} {mesh.name}: identity {worst_id:.1e}"
        if lam1 <= -2 * ops.n + 0.05:
            margin = min((r.L1 - r.L0) / r.scale for r in records)
            if asserted:
                ok &= margin >= -1e-6
            details.append(f"{head}, ordering margin {margin:.1e}"
                           + ("" if asserted else " (not asserted)"))
        else:
            details.append(f"{head}, ordering vacuous "
                           f"(lambda1={lam1:.2f})")
    _verdict(7, ok, "; ".join(details))


def test_criterion_8_rayleigh_ritz_consistency(
        clifford_mesh, clifford_op, sphere_mesh, sphere_op,
        otsuki_mesh, otsuki_op):
    ok = True
    details = []
    for mesh, ops in ((clifford_mesh, clifford_op),
                      (sphere_mesh, sphere_op),
                      (otsuki_mesh, otsuki_op)):
        span = trial_span(mesh, ops)
        theorem = theorem_check(span, 0.5)
        index = theorem.spectral_index
        negs = [lemma_check(span)[2].neg_inertia,
                theorem.neg_inertia_gamma0,
                conjecture_probe(mesh, ops)[0].neg_inertia]
        ok &= all(neg <= index for neg in negs)
        details.append(f"{mesh.name}: inertia {negs} <= index {index}")
    _verdict(8, ok, "; ".join(details))


def test_criterion_9_otsuki_generation(otsuki_profile, otsuki_mesh,
                                       otsuki_op):
    closure = otsuki_profile.closure_residual
    family = otsuki_mesh.source_family
    trace = check_minimality(family, per_dim=(128, 32))
    index = morse_index(otsuki_op)[0]
    rank = lemma_check(trial_span(otsuki_mesh, otsuki_op))[0]
    ok = (closure <= 1e-12 and trace <= 1e-10 and index >= 6 and rank == 9)
    _verdict(9, ok, f"rotational (2,3): closure={closure:.1e}, "
                    f"max|trace A|={trace:.1e}, index={index}, rank={rank}")


def test_criterion_10_theorem_behavior(clifford_mesh, clifford_op,
                                       sphere_mesh, sphere_op,
                                       synthetic_mesh, synthetic_op):
    ok = True
    clifford_span = trial_span(clifford_mesh, clifford_op)
    for delta1 in (0.3, 0.5, 0.9):
        rep = theorem_check(clifford_span, delta1)
        ok &= rep.verdict == paperlab.VERDICT_HYP_FAIL
    rep_s = theorem_check(trial_span(sphere_mesh, sphere_op), 0.5)
    ok &= rep_s.verdict == paperlab.VERDICT_GEODESIC
    rep_y = theorem_check(trial_span(synthetic_mesh, synthetic_op), 0.5)
    ok &= rep_y.verdict == paperlab.VERDICT_NEGATIVE
    ok &= rep_y.rr_consistent
    ok &= rep_y.neg_inertia_gamma0 <= rep_y.spectral_index
    _verdict(10, ok, f"hypothesis checker: product={paperlab.VERDICT_HYP_FAIL}"
                     f" at all splits, geodesic excluded, synthetic "
                     f"negative-definite case consistent "
                     f"(inertia {rep_y.neg_inertia_gamma0} <= "
                     f"index {rep_y.spectral_index})")
