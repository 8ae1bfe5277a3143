"""Trial-space checks: identities, ranks, v0 selection, chain, probe."""

import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest

from mhs import paperlab, spectral
from mhs.errors import InvalidParameterError
from mhs.fem import mesh_sphere
from mhs.geometry import FIELDS
from mhs.paperlab import (VERDICT_GEODESIC, VERDICT_HYP_FAIL,
                          VERDICT_NEGATIVE, chain_sweep, choose_v0,
                          conjecture_probe, gauss_identities, lemma_check,
                          pencil_inertia, ratio_report, theorem_check,
                          trial_span)


# ----------------------------------------------------------------- identities

def test_identities_clifford(clifford_mesh):
    r = gauss_identities(clifford_mesh)
    assert r.pair < 1e-12          # integrand vanishes pointwise
    assert r.int_l < 1e-6 * r.area
    assert r.int_asq_f < 1e-6 * r.area


def test_identities_otsuki(otsuki_mesh, otsuki_mesh_coarse):
    fine = gauss_identities(otsuki_mesh)
    coarse = gauss_identities(otsuki_mesh_coarse)
    for r in (fine, coarse):
        assert r.int_l <= 1e-4 * r.area
        assert r.int_asq_f <= 1e-4 * r.area
        assert r.pair <= 1e-4 * r.area
    # residuals shrink by at least 3x under one refinement step
    floor = 1e-13 * fine.area
    assert fine.int_l <= max(coarse.int_l / 3, floor)
    assert fine.int_asq_f <= max(coarse.int_asq_f / 3, floor)
    assert fine.pair <= max(coarse.pair / 3, floor)


def test_identities_sphere(sphere_mesh):
    r = gauss_identities(sphere_mesh)
    assert r.mode == "discrete"
    assert r.int_l < 1e-6 * r.area
    assert r.int_asq_f == 0.0


def test_ratio_values(clifford_mesh, sphere_mesh, otsuki_mesh):
    assert abs(ratio_report(clifford_mesh) - 1.0) < 1e-10
    assert ratio_report(sphere_mesh) == 0.0
    # any minimal torus in S^3 integrates |A|^2 to exactly 2|M|
    # (Gauss-Bonnet), so the ratio tends to 1 under refinement
    assert abs(ratio_report(otsuki_mesh) - 1.0) < 1e-2


def test_ratio_is_gauss_bonnet(clifford_mesh, otsuki_mesh_coarse,
                               otsuki_mesh, sphere_mesh):
    # n = 2: Gauss gives |A|^2 = 2 - 2K, so int |A|^2 / (2|M|) is
    # 1 - 2 pi chi / |M| in the curved measure
    for mesh in (clifford_mesh, otsuki_mesh_coarse, otsuki_mesh):
        area = mesh.quad_measure.sum()
        exact = 1.0 - 2 * np.pi * mesh.euler_characteristic / area
        assert exact == 1.0
        assert abs(ratio_report(mesh) - exact) < 1e-8
    assert sphere_mesh.euler_characteristic == 2
    assert ratio_report(sphere_mesh) == 0.0


# ----------------------------------------------------------------- ranks

def test_lemma_ranks(clifford_mesh, clifford_op, sphere_mesh, sphere_op,
                     otsuki_mesh, otsuki_op):
    rank, verdict, _ = lemma_check(trial_span(otsuki_mesh, otsuki_op))
    assert (rank, verdict) == (9, "full_rank")
    rank, verdict, _ = lemma_check(trial_span(clifford_mesh, clifford_op))
    assert (rank, verdict) == (5, "collapsed")
    rank, verdict, _ = lemma_check(trial_span(sphere_mesh, sphere_op))
    assert (rank, verdict) == (4, "collapsed")


def test_gamma_basis_labels(clifford_mesh, clifford_op):
    report = lemma_check(trial_span(clifford_mesh, clifford_op))[2]
    assert report.basis_labels == ("rho", "f_e1", "f_e2", "f_e3", "f_e4",
                                   "l_e1", "l_e2", "l_e3", "l_e4")
    assert np.all(np.diag(report.G) > 0)


def test_pencil_inertia_toy():
    rank, neg = pencil_inertia(np.diag([-1.0, 1.0]), np.eye(2))
    assert (rank, neg) == (2, 1)
    # rank-deficient Gram: duplicated directions collapse
    G = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.array([[-1.0, -1.0], [-1.0, -1.0]])
    rank, neg = pencil_inertia(B, G)
    assert (rank, neg) == (1, 1)


def test_no_optional_ground_state_or_v0():
    # the span owns rho and lam1, and v0 always comes from the moments
    for name, func in inspect.getmembers(paperlab, inspect.isfunction):
        for p in inspect.signature(func).parameters.values():
            assert not (p.name in ("rho", "lam1", "v0")
                        and p.default is not p.empty), (name, p.name)


# ----------------------------------------------------------------- v0 choice

def test_choose_v0_trace_identity(clifford_mesh, otsuki_mesh):
    for mesh in (clifford_mesh, otsuki_mesh):
        choose_v0(mesh, 0.5)  # raises if the trace identity fails


def test_choose_v0_rejects_non_unit_normals(otsuki_mesh):
    mesh = dataclasses.replace(otsuki_mesh,
                               quad_nu=1.001 * otsuki_mesh.quad_nu)
    for delta2 in (0.1, 0.9):
        with pytest.raises(InvalidParameterError):
            choose_v0(mesh, delta2)


def test_choose_v0_rejects_normals_off_unit_at_a_point():
    # |nu|^2 = 1 + 1e-6 s with a zero-mean s leaves the averaging
    # identity intact on the equator (|A|^2 = 0), but not the pointwise
    # unit bound of the quadrature normals
    mesh = mesh_sphere(3)
    w = mesh.quad_measure
    s = np.random.default_rng(0).standard_normal(w.shape)
    s -= (w * s).sum() / w.sum()
    scaled = dataclasses.replace(
        mesh, quad_nu=np.sqrt(1.0 + 1e-6 * s)[..., None] * mesh.quad_nu)
    with pytest.raises(InvalidParameterError, match="not unit"):
        choose_v0(scaled, 0.5)


def test_choose_v0_equator(sphere_mesh):
    v0, value = choose_v0(sphere_mesh, 0.5)
    # |A|^2 = 0: the quadratic is -n delta2 int f^2, minimized by the
    # polar axis where f is identically 1
    assert abs(abs(v0[3]) - 1.0) < 1e-12
    assert abs(value + 2 * 0.5 * sphere_mesh.area) < 1e-10 * sphere_mesh.area


def test_choose_v0_clifford_nonnegative(clifford_mesh):
    _, value = choose_v0(clifford_mesh, 0.5)
    # |A|^2 - n delta2 = 1 pointwise: no negative direction exists
    assert value >= 0


def _direct_q(mesh, delta2):
    weight = mesh.quad_measure * (mesh.quad_asq - mesh.surface_dim * delta2)
    return np.einsum("tq,tqa,tqb->ab", weight, mesh.quad_nu, mesh.quad_nu)


def test_choose_v0_value_is_form_at_v0(clifford_mesh, sphere_mesh,
                                       otsuki_mesh):
    for mesh in (clifford_mesh, sphere_mesh, otsuki_mesh):
        for delta2 in (0.1, 0.5, 0.9):
            v0, value = choose_v0(mesh, delta2)
            expected = v0 @ _direct_q(mesh, delta2) @ v0
            assert abs(np.linalg.norm(v0) - 1.0) < 1e-14
            assert abs(value - expected) <= 1e-12 * abs(expected)


def _permute_quadrature(mesh, seed):
    """The same mesh with its triangles (and their quadrature) reordered."""
    perm = np.random.default_rng(seed).permutation(mesh.num_triangles)
    fields = ("triangles", "quad_points", "quad_weights", "quad_measure",
              "quad_nu", "quad_asq")
    return dataclasses.replace(mesh, **{f: getattr(mesh, f)[perm]
                                        for f in fields})


def test_choose_v0_independent_of_summation_order(clifford_mesh,
                                                  sphere_mesh, otsuki_mesh):
    # Q is a multiple of the identity on the product torus and has a
    # doubly degenerate minimum on the Otsuki torus (Z_q symmetry), so
    # only a canonical choice inside the eigenspace is reproducible
    for mesh in (clifford_mesh, sphere_mesh, otsuki_mesh):
        v0, value = choose_v0(mesh, 0.5)
        for seed in (1, 2):
            w0, other = choose_v0(_permute_quadrature(mesh, seed), 0.5)
            assert np.abs(w0 - v0).max() <= 1e-12
            assert abs(other - value) <= 1e-12 * abs(value)


def test_choose_v0_validates_delta(clifford_mesh):
    with pytest.raises(InvalidParameterError):
        choose_v0(clifford_mesh, 0.0)
    with pytest.raises(InvalidParameterError):
        choose_v0(clifford_mesh, 1.0)


# ----------------------------------------------------------------- theorem

def test_theorem_clifford_hypotheses(clifford_mesh, clifford_op):
    report = theorem_check(trial_span(clifford_mesh, clifford_op), 0.5)
    assert report.hyp_pointwise          # 2 <= 2n delta1 = 2
    assert not report.hyp_integral       # int = 2|M| > delta2 n |M| = |M|
    assert report.verdict == VERDICT_HYP_FAIL
    assert report.rr_consistent
    assert report.spectral_index == 5


def test_theorem_equator_excluded(sphere_mesh, sphere_op):
    report = theorem_check(trial_span(sphere_mesh, sphere_op), 0.5)
    assert report.hyp_integral and report.hyp_pointwise
    assert report.geodesic_flag
    assert report.verdict == VERDICT_GEODESIC
    assert report.spectral_index == 1


def test_theorem_otsuki_rr_bound(otsuki_mesh, otsuki_op):
    report = theorem_check(trial_span(otsuki_mesh, otsuki_op), 0.5)
    assert report.verdict == VERDICT_HYP_FAIL
    assert report.neg_inertia_gamma0 <= report.spectral_index
    assert report.rr_consistent


def test_theorem_synthetic_negative_definite(synthetic_mesh, synthetic_op):
    report = theorem_check(trial_span(synthetic_mesh, synthetic_op), 0.5)
    assert report.hyp_integral and report.hyp_pointwise
    assert not report.geodesic_flag
    assert report.verdict == VERDICT_NEGATIVE
    assert report.gamma0_max_eig < 0
    # constant normal collapses f_v0 onto the ground state: only 4
    # independent directions survive, consistent with index 4
    assert report.neg_inertia_gamma0 == 4
    assert report.spectral_index == 4
    assert report.rr_consistent


@pytest.mark.parametrize("name, interval", [
    ("otsuki", None),            # sup |A|^2 / 4 + ratio = 5.05 > 1
    ("clifford", None),          # 2 / 4 + 1 > 1
    ("sphere", (0.0, 1.0)),      # totally geodesic: every split works
    ("synthetic", (0.125, 0.75)),   # |A|^2 = 0.5, ratio 0.25
], ids=["otsuki", "clifford", "sphere", "synthetic"])
def test_theorem_delta1_interval(name, interval, request):
    span = trial_span(request.getfixturevalue(f"{name}_mesh"),
                      request.getfixturevalue(f"{name}_op"))
    report = theorem_check(span, 0.5)
    if interval is None:
        assert report.delta1_interval is None
        assert report.to_dict()["delta1_interval"] is None
    else:
        assert np.allclose(report.delta1_interval, interval, atol=1e-12)
        assert report.to_dict()["delta1_interval"] == list(
            report.delta1_interval)
        inside = theorem_check(span, 0.5 * sum(report.delta1_interval))
        assert inside.hyp_integral and inside.hyp_pointwise
    lo, hi = report.delta1_interval or (1.0, 0.0)
    for delta1 in (0.05, 0.1, 0.5, 0.9, 0.95):
        if not lo <= delta1 <= hi:
            outside = theorem_check(span, delta1)
            assert not (outside.hyp_integral and outside.hyp_pointwise)


def test_theorem_validates_delta(clifford_mesh, clifford_op):
    span = trial_span(clifford_mesh, clifford_op)
    with pytest.raises(InvalidParameterError):
        theorem_check(span, 0.0)
    with pytest.raises(InvalidParameterError):
        theorem_check(span, 1.0)


def test_gamma0_forms_match_stacked_vectors(clifford_mesh, clifford_op,
                                            otsuki_mesh, otsuki_op,
                                            synthetic_mesh, synthetic_op):
    # the Gamma_0 forms come from the coordinate-span Grams through the
    # coefficient map of f_v0; the reference stacks the nodal vectors
    for mesh, ops in ((clifford_mesh, clifford_op), (otsuki_mesh, otsuki_op),
                      (synthetic_mesh, synthetic_op)):
        span = trial_span(mesh, ops)
        v0, _ = choose_v0(mesh, 0.5)
        G, B, _ = span.forms
        report, top = paperlab._gamma0_form(G, B, v0)
        Y = np.stack([span.rho] + [mesh.vertices @ e for e in np.eye(4)]
                     + [mesh.vertex_nu @ v0], axis=1)
        G_ref, B_ref = Y.T @ (ops.Mm @ Y), Y.T @ (ops.B @ Y)
        assert report.basis_labels == ("rho", "l_e1", "l_e2", "l_e3",
                                       "l_e4", "f_v0")
        assert np.abs(report.G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
        assert np.abs(report.B - B_ref).max() <= 1e-12 * np.abs(B_ref).max()
        theorem = theorem_check(span, 0.5)
        assert theorem.neg_inertia_gamma0 == report.neg_inertia
        assert theorem.gamma0_max_eig == top


# ----------------------------------------------------------------- chain

def test_chain_identity_all_geometries(clifford_mesh, clifford_op,
                                       sphere_mesh, sphere_op,
                                       otsuki_mesh, otsuki_op):
    for mesh, ops in ((clifford_mesh, clifford_op),
                      (sphere_mesh, sphere_op),
                      (otsuki_mesh, otsuki_op)):
        records, _ = chain_sweep(trial_span(mesh, ops), draws=25, seed=0)
        worst = max(r.residual_identity / r.scale for r in records)
        assert worst <= 1e-10


def _direct_chain(mesh, ops, rho, lam1, a, b, w, delta1):
    """The chain lines from sparse products on nodal vectors."""
    delta2 = 1.0 - delta1
    n = ops.n
    lw = mesh.vertices @ w
    f0 = mesh.vertex_nu @ choose_v0(mesh, delta2)[0]
    f = a * rho + lw + b * f0

    def dot(u, A, v):
        return float(u @ (A @ v))

    rho2 = dot(rho, ops.Mm, rho)
    f02 = dot(f0, ops.Mm, f0)
    asq_l2 = dot(lw, ops.SA, lw)
    asq_lf = dot(lw, ops.SA, f0)
    asq_rl = dot(rho, ops.SA, lw)
    g2 = (a / np.sqrt(delta1)) * rho + np.sqrt(delta1) * lw
    g3 = (b / np.sqrt(delta2)) * f0 + np.sqrt(delta2) * lw
    terms = (a * a * (dot(rho, ops.SA, rho) / delta1 - 2.0 * n * rho2),
             -dot(g2, ops.SA, g2), -dot(g3, ops.SA, g3),
             b * b * (dot(f0, ops.SA, f0) / delta2 - n * f02))
    return {"L0": dot(f, ops.B, f),
            "L0e": (a * a * lam1 * rho2 - asq_l2 - n * b * b * f02
                    - 2.0 * b * asq_lf - 2.0 * a * asq_rl),
            "L1": (-2.0 * a * a * n * rho2 - asq_l2 - n * b * b * f02
                   - 2.0 * b * asq_lf - 2.0 * a * asq_rl),
            "L2": sum(terms), "terms": terms,
            "scale": (abs(a * a * lam1 * rho2) + 2.0 * a * a * n * rho2
                      + abs(asq_l2) + n * b * b * f02
                      + 2.0 * abs(b * asq_lf) + 2.0 * abs(a * asq_rl)
                      + sum(abs(t) for t in terms))}


def test_chain_sweep_matches_direct_sparse_forms(
        otsuki_mesh, otsuki_op, sphere_mesh, sphere_op,
        clifford_mesh_odd, clifford_op_spectral):
    for mesh, ops in ((otsuki_mesh, otsuki_op), (sphere_mesh, sphere_op),
                      (clifford_mesh_odd, clifford_op_spectral)):
        span = trial_span(mesh, ops)
        records, params = chain_sweep(span, draws=20, seed=0)
        for rec, p in zip(records, params):
            ref = _direct_chain(mesh, ops, span.rho, span.lam1, p["a"],
                                p["b"], np.array(p["w"]), p["delta1"])
            tol = 1e-12 * ref["scale"]
            assert abs(rec.scale - ref["scale"]) <= tol
            for name in ("L0", "L0e", "L1", "L2"):
                assert abs(getattr(rec, name) - ref[name]) <= tol, name
            for got, want in zip(rec.terms, ref["terms"]):
                assert abs(got - want) <= tol
            assert rec.lambda1 == span.lam1


def _counting_source(mesh):
    """The mesh with a source family whose sample pass and six field
    views log their calls."""
    family = mesh.source_family
    calls = []

    def counted(name):
        def field(params):
            calls.append(name)
            return getattr(family, name)(params)
        return field

    counting = dataclasses.replace(
        family, **{name: counted(name) for name in ("sample",) + FIELDS})
    return dataclasses.replace(mesh, source_family=counting), calls


def test_chain_sweep_never_evaluates_positions(otsuki_mesh, otsuki_op):
    mesh, calls = _counting_source(otsuki_mesh)
    records, _ = chain_sweep(trial_span(mesh, otsuki_op), draws=20, seed=0)
    assert len(records) == 20
    assert calls == []


def test_no_chart_evaluation_after_meshing(otsuki_mesh, otsuki_op):
    # mesh_torus samples every field the checks integrate
    mesh, calls = _counting_source(otsuki_mesh)
    assert gauss_identities(mesh).mode == "analytic"
    ratio_report(mesh)
    choose_v0(mesh, 0.5)
    span = trial_span(mesh, otsuki_op)
    lemma_check(span)
    theorem_check(span, 0.5)
    conjecture_probe(mesh, otsuki_op)
    assert calls == []


def test_normal_moments_formed_once_per_span(otsuki_mesh, otsuki_op):
    # theorem_check and chain_sweep both read the span's moments: one
    # pass over the quadrature normals, and the same v0 as choose_v0
    span = trial_span(otsuki_mesh, otsuki_op)
    with mock.patch.object(paperlab, "_normal_moments",
                           wraps=paperlab._normal_moments) as moments:
        theorem = theorem_check(span, 0.5)
        chain_sweep(span, draws=5, seed=0)
        theorem_check(span, 0.3)
    assert moments.call_count == 1
    assert theorem.v0.tobytes() == choose_v0(otsuki_mesh, 0.5)[0].tobytes()


def test_chain_sweep_validates_draws(sphere_mesh, sphere_op):
    span = trial_span(sphere_mesh, sphere_op)
    for draws in (0, -3):
        with pytest.raises(InvalidParameterError, match="draws"):
            chain_sweep(span, draws=draws)
    with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
        chain_sweep(span, draws=2, seed=-1)


def test_chain_single_term_case(otsuki_mesh, otsuki_op):
    span = trial_span(otsuki_mesh, otsuki_op)
    v0, _ = choose_v0(otsuki_mesh, 0.5)
    rec = paperlab._chain_record(span.forms, otsuki_op.n, span.lam1, 0.0,
                                 0.0, np.array([1.0, 0, 0, 0]), 0.5, v0)
    # f = l_w alone: the direct value reduces to -int |A|^2 l_w^2 up to
    # the discrete residual of the coordinate eigenvalue identity
    assert rec.L0 < 0
    assert abs(rec.L0 - rec.L0e) < 1e-2 * rec.scale


def test_chain_ordering_vacuous_on_sphere(sphere_mesh, sphere_op):
    records, _ = chain_sweep(trial_span(sphere_mesh, sphere_op), draws=10,
                             seed=0)
    # lambda1 = -2 > -2n + tol: the ground-level substitution step does
    # not apply, and indeed L1 can fall below L0 here
    assert records[0].lambda1 > -4 + 0.05


def test_chain_ordering_gap_is_discretization_limited(otsuki_mesh,
                                                      otsuki_op):
    # the substitution L0 -> L1 uses lambda1 <= -2n; discretely the
    # expansion L0 = L0e holds only up to an O(h^2) residual, so the
    # ordering margin is bounded by that residual rather than by zero
    records, _ = chain_sweep(trial_span(otsuki_mesh, otsuki_op), draws=50,
                             seed=0)
    worst = min((r.L1 - r.L0) / r.scale for r in records)
    assert worst > -5e-3   # small, resolution-limited violation band


# ----------------------------------------------------------------- probe

def test_conjecture_probe_clifford(clifford_mesh, clifford_op):
    report, flag = conjecture_probe(clifford_mesh, clifford_op)
    assert report.basis_labels[0] == "one"
    assert report.rank == 5
    assert report.neg_inertia == 5
    assert not flag   # bounded by the collapsed rank
    # int 1 J(1) = -(n + |A|^2)|M| = -2n|M| for the product torus
    assert abs(report.B[0, 0] + 4 * clifford_mesh.area) < 1e-10


def test_conjecture_probe_equator(sphere_mesh, sphere_op):
    report, flag = conjecture_probe(sphere_mesh, sphere_op)
    assert report.rank == 4
    assert report.neg_inertia >= 1
    assert abs(report.B[0, 0] + 2 * sphere_mesh.area) < 1e-10
    assert not flag


def test_conjecture_probe_otsuki(otsuki_mesh, otsuki_op):
    report, flag = conjecture_probe(otsuki_mesh, otsuki_op)
    assert report.rank == 9
    assert report.neg_inertia >= 6
    assert flag
    # Rayleigh-Ritz: never exceeds the spectral index
    assert report.neg_inertia <= spectral.morse_index(otsuki_op)[0]
