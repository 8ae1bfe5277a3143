"""Trial-space checks: identities, ranks, v0 selection, chain, probe."""

import dataclasses
import inspect
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from conftest import kron_set
from mhs import fem, paperlab, rotational, spectral
from mhs.errors import InvalidParameterError
from mhs.fem import OperatorSet, SurfaceMesh, mesh_sphere
from mhs.geometry import FIELDS, sample_grid
from mhs.paperlab import (VERDICT_GEODESIC, VERDICT_HYP_FAIL,
                          VERDICT_NEGATIVE, TrialForms, chain_sweep,
                          conjecture_probe, lemma_check, pencil_inertia,
                          theorem_check, trial_forms)


def _forms(mesh, ops, ground=True):
    """The trial forms of a mesh and its set, with the ground state of the
    set or, with ground=False, without one."""
    return trial_forms(mesh, ops,
                       spectral.first_eigfunction(ops) if ground else None)


def _theorem(mesh, ops, delta1=0.5):
    return theorem_check(_forms(mesh, ops), delta1,
                         spectral.morse_index(ops)[0])


def _v0(forms, delta2):
    """v0 and v0^T Q v0 for one delta2, from the forms' normal moments."""
    v0, value = paperlab._v0_from_moments(forms.moments, forms.n, [delta2])
    return v0[0], float(value[0])


# ----------------------------------------------------------------- forms

def _span(mesh, ops, head):
    """Grams of {head, f_e.., l_e..} formed on their own."""
    X = np.column_stack([head, mesh.vertex_nu, mesh.vertices])
    return paperlab._span_forms(ops, X)


def _normal_moments(mesh):
    """Q_A and Q_1 by the products of the separate moment pass."""
    nu = mesh.quad_nu.reshape(-1, mesh.quad_nu.shape[-1])
    w_nu = mesh.quad_measure.reshape(-1, 1) * nu
    return (mesh.quad_asq.reshape(-1, 1) * w_nu).T @ nu, w_nu.T @ nu


@pytest.mark.parametrize("mesh_name, ops_name", [
    ("otsuki_mesh", "otsuki_op"), ("sphere_mesh", "sphere_op")],
    ids=["p1-otsuki-256x64", "ico4"])
def test_gram_blocks_match_separate_spans(mesh_name, ops_name, request):
    # one product over the ten columns {rho, 1, f's, l's} gives both
    # nine-column spans bit for bit, and one quadrature pass the moments
    mesh, ops = (request.getfixturevalue(name)
                 for name in (mesh_name, ops_name))
    lam1, rho = spectral.first_eigfunction(ops)
    forms = trial_forms(mesh, ops, (lam1, rho))
    assert forms.labels[:3] == ("rho", "one", "f_e1")
    assert forms.lam1 == lam1
    no_ground = trial_forms(mesh, ops, None)
    for head, vector in (("rho", rho), ("one", np.ones(len(rho)))):
        want = _span(mesh, ops, vector)
        blocks = [forms.block(head)[1:]]
        if head == "one":
            blocks.append(no_ground.block(head)[1:])
        for got in blocks:
            assert [F.tobytes() for F in got] == [F.tobytes() for F in want]
    for got in (forms.moments, no_ground.moments):
        assert ([Q.tobytes() for Q in got]
                == [Q.tobytes() for Q in _normal_moments(mesh)])
    # the identity sums go through BLAS in another order than one einsum
    # accumulation: each of the P terms is bounded by w (|A|^2 + n)
    w, asq, n = mesh.quad_measure, mesh.quad_asq, mesh.surface_dim
    x, nu = mesh.quad_points, mesh.quad_nu
    want = {"int_l": np.einsum("tq,tqa->a", w, x),
            "int_asq_f": np.einsum("tq,tq,tqa->a", w, asq, nu),
            "pair": np.einsum("tq,tq,tqa,tqb->ab", w, asq - n, x, nu)}
    tol = w.size * np.finfo(float).eps * (w * (asq + n)).sum()
    for name, sums in want.items():
        got = getattr(forms.identities, name)
        assert abs(got - np.abs(sums).max()) <= tol, name
    assert forms.identities.area == w.sum() and forms.asq_max == asq.max()
    assert forms.ratio == (w * asq).sum() / (n * w.sum())


def _lattice(line, profile, nphi):
    """x, nu and |A|^2 of the surface of profile on the whole nt x nphi
    grid of line, x and nu named as a mesh holds them at its vertices."""
    family = rotational.build_surface(profile)
    X, _, nu, _, asq, _ = family.sample(sample_grid(family, (line.nt, nphi)))
    return SimpleNamespace(vertices=X, vertex_nu=nu, asq=asq)


def _lattice_rho(line, rho, nphi):
    """A line's ground state, a cell vector, on the nodes of its nt x nphi
    lattice."""
    return np.tile(np.repeat(rho, nphi), line.phases)


@pytest.mark.parametrize("name", ["otsuki_op_spectral", "otsuki_7_10",
                                  "clifford_op_spectral"],
                         ids=["otsuki-2-3-255x17", "otsuki-7-10-255x17",
                              "clifford-33x33"])
def test_line_forms_match_the_lattice_span(name, request):
    # line_forms reads the phase pencils and node sums of a line, and no
    # mesh.  Against the ten lattice columns {rho, 1, nu, x} on the
    # Kronecker set of the same grid (conftest.kron_set), rho repeated
    # over the cells and phi, and the sums of the sampled lattice
    if name == "otsuki_7_10":
        profile = rotational.find_otsuki(7, 10)
        line = fem.assemble_spectral(profile, 255)
        ref = kron_set(rotational.build_surface(profile), 255, 17)
    else:
        profile = request.getfixturevalue(
            name.replace("_op_spectral", "_profile"))
        line = request.getfixturevalue(name)
        ref = request.getfixturevalue(name.replace("_spectral", "_kron"))
    assert line.phases == {"otsuki_7_10": 5, "otsuki_op_spectral": 3}.get(
        name, 1)
    lam1, rho = spectral.first_eigfunction(line)
    forms = paperlab.line_forms(line, (lam1, rho))
    nphi = ref.size // line.nt
    lattice = _lattice(line, profile, nphi)
    X = np.column_stack([_lattice_rho(line, rho, nphi), np.ones(ref.size),
                         lattice.vertex_nu, lattice.vertices])
    for got, want in zip(forms.grams, paperlab._span_forms(ref, X)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    G = forms.grams[0]
    assert abs(G[0, 0] - 1.0) <= 1e-12 and G[0, 1] > 0.0
    no_ground = paperlab.line_forms(line, None)
    assert no_ground.labels == forms.labels[1:] and no_ground.lam1 is None
    for got, want in zip(no_ground.grams, forms.block("one")[1:]):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the lattice sums, with the weights w of Mm = diag(w) (x) I
    w, asq, nu = ref.Mm.diagonal(), lattice.asq, lattice.vertex_nu
    wa = w * asq
    for got, want in zip(forms.moments, ((wa[:, None] * nu).T @ nu,
                                         (w[:, None] * nu).T @ nu)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(forms.identities.area - w.sum()) <= 1e-12 * w.sum()
    assert abs(forms.asq_integral - wa.sum()) <= 1e-12 * wa.sum()
    assert abs(forms.ratio - 1.0) <= 1e-12
    assert forms.asq_max == pytest.approx(asq.max(), rel=1e-12)
    sums = {"int_l": w @ lattice.vertices, "int_asq_f": wa @ nu,
            "pair": ((w * (asq - 2))[:, None] * lattice.vertices).T @ nu}
    for key, want in sums.items():
        got = getattr(forms.identities, key)
        assert abs(got - np.abs(want).max()) <= 1e-13 * (w * (asq + 2)).sum()
    assert forms.lam1 == lam1 and forms.identities.mode == "analytic"
    assert lemma_check(forms)[0] == (5 if name.startswith("clifford") else 9)


def test_trial_forms_hold_no_mesh_ops_or_nodal_arrays(otsuki_mesh,
                                                      otsuki_op):
    forms = _forms(otsuki_mesh, otsuki_op)

    def leaves(value):
        if isinstance(value, (tuple, list)):
            return [leaf for v in value for leaf in leaves(v)]
        if dataclasses.is_dataclass(value):
            return [leaf for f in dataclasses.fields(value)
                    for leaf in leaves(getattr(value, f.name))]
        return [value]

    values = [leaf for f in dataclasses.fields(TrialForms)
              for leaf in leaves(getattr(forms, f.name))]
    assert not any(isinstance(v, (SurfaceMesh, OperatorSet)) for v in values)
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    # the three 10 x 10 Grams and the two 4 x 4 moments: nothing of the
    # length of the vertices or the quadrature points
    assert sorted(a.shape for a in arrays) == [(4, 4)] * 2 + [(10, 10)] * 3
    assert all(isinstance(v, (np.ndarray, str, int, float, type(None)))
               for v in values)


def test_trial_forms_without_ground_state(sphere_mesh, sphere_op):
    forms = _forms(sphere_mesh, sphere_op, ground=False)
    assert forms.lam1 is None and forms.labels[0] == "one"
    assert conjecture_probe(forms)[0].rank == 4
    for check in (lemma_check, lambda f: theorem_check(f, 0.5, 1),
                  chain_sweep):
        with pytest.raises(InvalidParameterError, match="no rho column"):
            check(forms)


# ----------------------------------------------------------------- identities

def test_identities_clifford(clifford_mesh, clifford_op):
    r = _forms(clifford_mesh, clifford_op, ground=False).identities
    assert r.pair < 1e-12          # integrand vanishes pointwise
    assert r.int_l < 1e-6 * r.area
    assert r.int_asq_f < 1e-6 * r.area


def test_identities_otsuki(otsuki_mesh, otsuki_op, otsuki_mesh_coarse,
                           otsuki_op_coarse):
    fine = _forms(otsuki_mesh, otsuki_op, ground=False).identities
    coarse = _forms(otsuki_mesh_coarse, otsuki_op_coarse,
                    ground=False).identities
    for r in (fine, coarse):
        assert r.int_l <= 1e-4 * r.area
        assert r.int_asq_f <= 1e-4 * r.area
        assert r.pair <= 1e-4 * r.area
    # residuals shrink by at least 3x under one refinement step
    floor = 1e-13 * fine.area
    assert fine.int_l <= max(coarse.int_l / 3, floor)
    assert fine.int_asq_f <= max(coarse.int_asq_f / 3, floor)
    assert fine.pair <= max(coarse.pair / 3, floor)


def test_identities_sphere(sphere_mesh, sphere_op):
    r = _forms(sphere_mesh, sphere_op, ground=False).identities
    assert r.mode == "discrete"
    assert r.int_l < 1e-6 * r.area
    assert r.int_asq_f == 0.0


def _ratio(mesh, ops):
    return _forms(mesh, ops, ground=False).ratio


def test_ratio_values(clifford_mesh, clifford_op, sphere_mesh, sphere_op,
                      otsuki_mesh, otsuki_op):
    assert abs(_ratio(clifford_mesh, clifford_op) - 1.0) < 1e-10
    assert _ratio(sphere_mesh, sphere_op) == 0.0
    # any minimal torus in S^3 integrates |A|^2 to exactly 2|M|
    # (Gauss-Bonnet), so the ratio tends to 1 under refinement
    assert abs(_ratio(otsuki_mesh, otsuki_op) - 1.0) < 1e-2


def test_ratio_is_gauss_bonnet(clifford_mesh, clifford_op,
                               otsuki_mesh_coarse, otsuki_op_coarse,
                               otsuki_mesh, otsuki_op, sphere_mesh,
                               sphere_op):
    # n = 2: Gauss gives |A|^2 = 2 - 2K, so int |A|^2 / (2|M|) is
    # 1 - 2 pi chi / |M| in the curved measure
    for mesh, ops in ((clifford_mesh, clifford_op),
                      (otsuki_mesh_coarse, otsuki_op_coarse),
                      (otsuki_mesh, otsuki_op)):
        area = mesh.quad_measure.sum()
        exact = 1.0 - 2 * np.pi * mesh.euler_characteristic / area
        assert exact == 1.0
        assert abs(_ratio(mesh, ops) - exact) < 1e-8
    assert sphere_mesh.euler_characteristic == 2
    assert _ratio(sphere_mesh, sphere_op) == 0.0


# ----------------------------------------------------------------- ranks

def test_lemma_ranks(clifford_mesh, clifford_op, sphere_mesh, sphere_op,
                     otsuki_mesh, otsuki_op):
    rank, verdict, _, full = lemma_check(_forms(otsuki_mesh, otsuki_op))
    assert (rank, verdict, full) == (9, "full_rank", 9)
    rank, verdict, _, full = lemma_check(_forms(clifford_mesh, clifford_op))
    assert (rank, verdict, full) == (5, "collapsed", 9)
    rank, verdict, _, full = lemma_check(_forms(sphere_mesh, sphere_op))
    assert (rank, verdict, full) == (4, "collapsed", 9)


def test_gamma_basis_labels(clifford_mesh, clifford_op):
    report = lemma_check(_forms(clifford_mesh, clifford_op))[2]
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
    # a rank_tol outside (0, 1) keeps G's null directions (scipy raised
    # on -1) or none at all (NaN read rank 0)
    for rank_tol in (-1.0, 0.0, 1.0, np.nan):
        with pytest.raises(InvalidParameterError, match="rank_tol"):
            pencil_inertia(B, G, rank_tol)


def test_no_optional_ground_state_or_v0():
    # the forms own rho's Grams and lam1, and v0 always comes from the
    # moments
    for name, func in inspect.getmembers(paperlab, inspect.isfunction):
        for p in inspect.signature(func).parameters.values():
            assert not (p.name in ("rho", "lam1", "v0", "ground", "index")
                        and p.default is not p.empty), (name, p.name)


# ----------------------------------------------------------------- v0 choice

def test_choose_v0_trace_identity(clifford_mesh, clifford_op, otsuki_mesh,
                                  otsuki_op):
    for mesh, ops in ((clifford_mesh, clifford_op), (otsuki_mesh, otsuki_op)):
        # trial_forms raises if the trace identity fails
        _v0(_forms(mesh, ops, ground=False), 0.5)


def test_choose_v0_rejects_non_unit_normals(otsuki_mesh, otsuki_op):
    mesh = dataclasses.replace(otsuki_mesh,
                               quad_nu=1.001 * otsuki_mesh.quad_nu)
    for ground in (None, spectral.first_eigfunction(otsuki_op)):
        with pytest.raises(InvalidParameterError):
            trial_forms(mesh, otsuki_op, ground)


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
        trial_forms(scaled, fem.assemble(mesh), None)


def test_choose_v0_equator(sphere_mesh, sphere_op):
    v0, value = _v0(_forms(sphere_mesh, sphere_op, ground=False), 0.5)
    # |A|^2 = 0: the quadratic is -n delta2 int f^2, minimized by the
    # polar axis where f is identically 1
    assert abs(abs(v0[3]) - 1.0) < 1e-12
    assert abs(value + 2 * 0.5 * sphere_mesh.area) < 1e-10 * sphere_mesh.area


def test_choose_v0_clifford_nonnegative(clifford_mesh, clifford_op):
    _, value = _v0(_forms(clifford_mesh, clifford_op, ground=False), 0.5)
    # |A|^2 - n delta2 = 1 pointwise: no negative direction exists
    assert value >= 0


def _direct_q(mesh, delta2):
    weight = mesh.quad_measure * (mesh.quad_asq - mesh.surface_dim * delta2)
    return np.einsum("tq,tqa,tqb->ab", weight, mesh.quad_nu, mesh.quad_nu)


def test_choose_v0_value_is_form_at_v0(clifford_mesh, clifford_op,
                                       sphere_mesh, sphere_op, otsuki_mesh,
                                       otsuki_op):
    for mesh, ops in ((clifford_mesh, clifford_op), (sphere_mesh, sphere_op),
                      (otsuki_mesh, otsuki_op)):
        forms = _forms(mesh, ops, ground=False)
        for delta2 in (0.1, 0.5, 0.9):
            v0, value = _v0(forms, delta2)
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


def test_choose_v0_independent_of_summation_order(
        clifford_mesh, clifford_op, sphere_mesh, sphere_op, otsuki_mesh,
        otsuki_op):
    # Q is a multiple of the identity on the product torus and has a
    # doubly degenerate minimum on the Otsuki torus (Z_q symmetry), so
    # only a canonical choice inside the eigenspace is reproducible
    for mesh, ops in ((clifford_mesh, clifford_op), (sphere_mesh, sphere_op),
                      (otsuki_mesh, otsuki_op)):
        v0, value = _v0(_forms(mesh, ops, ground=False), 0.5)
        for seed in (1, 2):
            w0, other = _v0(_forms(_permute_quadrature(mesh, seed), ops,
                                   ground=False), 0.5)
            assert np.abs(w0 - v0).max() <= 1e-12
            assert abs(other - value) <= 1e-12 * abs(value)


def test_choose_v0_validates_delta(clifford_mesh, clifford_op):
    forms = _forms(clifford_mesh, clifford_op, ground=False)
    with pytest.raises(InvalidParameterError):
        _v0(forms, 0.0)
    with pytest.raises(InvalidParameterError):
        _v0(forms, 1.0)


# ----------------------------------------------------------------- theorem

def test_theorem_clifford_hypotheses(clifford_mesh, clifford_op):
    report = _theorem(clifford_mesh, clifford_op)
    assert report.hyp_pointwise          # 2 <= 2n delta1 = 2
    assert not report.hyp_integral       # int = 2|M| > delta2 n |M| = |M|
    assert report.verdict == VERDICT_HYP_FAIL
    assert report.rr_consistent
    assert report.spectral_index == 5


def test_theorem_equator_excluded(sphere_mesh, sphere_op):
    report = _theorem(sphere_mesh, sphere_op)
    assert report.hyp_integral and report.hyp_pointwise
    assert report.geodesic_flag
    assert report.verdict == VERDICT_GEODESIC
    assert report.spectral_index == 1


def test_theorem_otsuki_rr_bound(otsuki_mesh, otsuki_op):
    report = _theorem(otsuki_mesh, otsuki_op)
    assert report.verdict == VERDICT_HYP_FAIL
    assert report.neg_inertia_gamma0 <= report.spectral_index
    assert report.rr_consistent


def test_theorem_synthetic_negative_definite(synthetic_mesh, synthetic_op):
    report = _theorem(synthetic_mesh, synthetic_op)
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
    ops = request.getfixturevalue(f"{name}_op")
    forms = _forms(request.getfixturevalue(f"{name}_mesh"), ops)
    index = spectral.morse_index(ops)[0]
    report = theorem_check(forms, 0.5, index)
    if interval is None:
        assert report.delta1_interval is None
        assert report.to_dict()["delta1_interval"] is None
    else:
        assert np.allclose(report.delta1_interval, interval, atol=1e-12)
        assert report.to_dict()["delta1_interval"] == list(
            report.delta1_interval)
        inside = theorem_check(forms, 0.5 * sum(report.delta1_interval),
                               index)
        assert inside.hyp_integral and inside.hyp_pointwise
    lo, hi = report.delta1_interval or (1.0, 0.0)
    for delta1 in (0.05, 0.1, 0.5, 0.9, 0.95):
        if not lo <= delta1 <= hi:
            outside = theorem_check(forms, delta1, index)
            assert not (outside.hyp_integral and outside.hyp_pointwise)


def test_theorem_validates_delta(clifford_mesh, clifford_op):
    forms = _forms(clifford_mesh, clifford_op)
    with pytest.raises(InvalidParameterError):
        theorem_check(forms, 0.0, 5)
    with pytest.raises(InvalidParameterError):
        theorem_check(forms, 1.0, 5)


def test_gamma0_forms_match_stacked_vectors(clifford_mesh, clifford_op,
                                            otsuki_mesh, otsuki_op,
                                            synthetic_mesh, synthetic_op):
    # the Gamma_0 forms come from the coordinate-span Grams through the
    # coefficient map of f_v0; the reference stacks the nodal vectors
    for mesh, ops in ((clifford_mesh, clifford_op), (otsuki_mesh, otsuki_op),
                      (synthetic_mesh, synthetic_op)):
        lam1, rho = spectral.first_eigfunction(ops)
        forms = trial_forms(mesh, ops, (lam1, rho))
        v0, _ = _v0(forms, 0.5)
        _, G, B, _ = forms.block("rho")
        report, top = paperlab._gamma0_form(G, B, v0)
        Y = np.stack([rho] + [mesh.vertices @ e for e in np.eye(4)]
                     + [mesh.vertex_nu @ v0], axis=1)
        G_ref, B_ref = Y.T @ (ops.Mm @ Y), Y.T @ (ops.B @ Y)
        assert report.basis_labels == ("rho", "l_e1", "l_e2", "l_e3",
                                       "l_e4", "f_v0")
        assert np.abs(report.G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
        assert np.abs(report.B - B_ref).max() <= 1e-12 * np.abs(B_ref).max()
        theorem = theorem_check(forms, 0.5, spectral.morse_index(ops)[0])
        assert theorem.neg_inertia_gamma0 == report.neg_inertia
        assert theorem.gamma0_max_eig == top


# ----------------------------------------------------------------- chain

def test_chain_identity_all_geometries(clifford_mesh, clifford_op,
                                       sphere_mesh, sphere_op,
                                       otsuki_mesh, otsuki_op):
    for mesh, ops in ((clifford_mesh, clifford_op),
                      (sphere_mesh, sphere_op),
                      (otsuki_mesh, otsuki_op)):
        records, _ = chain_sweep(_forms(mesh, ops), draws=25, seed=0)
        worst = max(r.residual_identity / r.scale for r in records)
        assert worst <= 1e-10


def _direct_chain(mesh, ops, rho, lam1, a, b, w, delta1, v0):
    """The chain lines from sparse products on nodal vectors."""
    delta2 = 1.0 - delta1
    n = ops.n
    lw = mesh.vertices @ w
    f0 = mesh.vertex_nu @ v0
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
        otsuki_mesh, otsuki_op, sphere_mesh, sphere_op, clifford_profile,
        clifford_op_spectral, clifford_op_kron):
    cases = []
    for mesh, ops in ((otsuki_mesh, otsuki_op), (sphere_mesh, sphere_op)):
        lam1, rho = spectral.first_eigfunction(ops)
        cases.append((trial_forms(mesh, ops, (lam1, rho)), mesh, ops, rho))
    # a line's forms, against products on its Kronecker set
    line = clifford_op_spectral
    ground = spectral.first_eigfunction(line)
    cases.append((paperlab.line_forms(line, ground),
                  _lattice(line, clifford_profile, 33), clifford_op_kron,
                  _lattice_rho(line, ground[1], 33)))
    for forms, mesh, ops, rho in cases:
        lam1 = forms.lam1
        records, params = chain_sweep(forms, draws=20, seed=0)
        for rec, p in zip(records, params):
            ref = _direct_chain(mesh, ops, rho, lam1, p["a"], p["b"],
                                np.array(p["w"]), p["delta1"],
                                _v0(forms, 1.0 - p["delta1"])[0])
            tol = 1e-12 * ref["scale"]
            assert abs(rec.scale - ref["scale"]) <= tol
            for name in ("L0", "L0e", "L1", "L2"):
                assert abs(getattr(rec, name) - ref[name]) <= tol, name
            for got, want in zip(rec.terms, ref["terms"]):
                assert abs(got - want) <= tol
            assert rec.lambda1 == lam1


def _chain_per_draw(grams, n, lam1, a, b, w, delta1, v0):
    """The chain lines of one draw, each integral u^T F v of span
    coefficient vectors formed on its own: the reference for the
    stacked pass of chain_sweep."""
    G, B, SA = grams
    delta2 = 1.0 - delta1
    d = len(v0)
    rho = np.eye(2 * d + 1)[0]
    lw = np.concatenate([np.zeros(d + 1), w])
    f0 = np.concatenate([[0.0], v0, np.zeros(d)])
    f = a * rho + lw + b * f0

    def dot(u, F, v):
        return float(u @ F @ v)

    rho2, f02 = dot(rho, G, rho), dot(f0, G, f0)
    asq_l2, asq_lf, asq_rl = (dot(lw, SA, lw), dot(lw, SA, f0),
                              dot(rho, SA, lw))
    g2 = (a / np.sqrt(delta1)) * rho + np.sqrt(delta1) * lw
    g3 = (b / np.sqrt(delta2)) * f0 + np.sqrt(delta2) * lw
    terms = (a * a * (dot(rho, SA, rho) / delta1 - 2.0 * n * rho2),
             -dot(g2, SA, g2), -dot(g3, SA, g3),
             b * b * (dot(f0, SA, f0) / delta2 - n * f02))
    rest = -asq_l2 - n * b * b * f02 - 2.0 * b * asq_lf - 2.0 * a * asq_rl
    return {"L0": dot(f, B, f), "L0e": a * a * lam1 * rho2 + rest,
            "L1": -2.0 * a * a * n * rho2 + rest, "L2": sum(terms),
            "terms": terms,
            "scale": (abs(a * a * lam1 * rho2) + 2.0 * a * a * n * rho2
                      + abs(asq_l2) + n * b * b * f02
                      + 2.0 * abs(b * asq_lf) + 2.0 * abs(a * asq_rl)
                      + sum(abs(t) for t in terms))}


def test_stacked_chain_sweep_matches_a_per_draw_pass(
        otsuki_profile, clifford_mesh, clifford_op, sphere_mesh, sphere_op):
    otsuki = fem.mesh_torus(rotational.build_surface(otsuki_profile), 64, 16)
    for mesh, ops in ((otsuki, fem.assemble(otsuki)),
                      (clifford_mesh, clifford_op), (sphere_mesh, sphere_op)):
        forms = _forms(mesh, ops)
        real, stacks = paperlab._v0_from_moments, []

        def spy(*args):
            stacks.append(real(*args)[0])
            return stacks[-1], None

        with (mock.patch.object(paperlab, "_v0_from_moments",
                                side_effect=spy),
              mock.patch.object(paperlab.np.linalg, "eigh",
                                wraps=np.linalg.eigh) as eigh):
            records, params = chain_sweep(forms, draws=100, seed=3)
        # one stacked eigensolve gives every v0, and each row has the
        # bits of the v0 of its delta2 on its own
        assert eigh.call_count == 1 and stacks[0].shape == (100, 4)
        for rec, p, v0 in zip(records, params, stacks[0]):
            assert v0.tobytes() == _v0(forms, 1.0 - p["delta1"])[0].tobytes()
            ref = _chain_per_draw(forms.block("rho")[1:], forms.n,
                                  forms.lam1, p["a"], p["b"],
                                  np.array(p["w"]), p["delta1"], v0)
            tol = 1e-13 * ref["scale"]
            assert abs(rec.scale - ref["scale"]) <= tol
            for name in ("L0", "L0e", "L1", "L2"):
                assert abs(getattr(rec, name) - ref[name]) <= tol, name
            for got, want in zip(rec.terms, ref["terms"]):
                assert abs(got - want) <= tol


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
    records, _ = chain_sweep(_forms(mesh, otsuki_op), draws=20, seed=0)
    assert len(records) == 20
    assert calls == []


def test_no_chart_evaluation_after_meshing(otsuki_mesh, otsuki_op):
    # mesh_torus samples every field the checks integrate
    mesh, calls = _counting_source(otsuki_mesh)
    forms = _forms(mesh, otsuki_op)
    assert forms.identities.mode == "analytic"
    lemma_check(forms)
    theorem_check(forms, 0.5, 12)
    conjecture_probe(forms)
    chain_sweep(forms, draws=5)
    assert calls == []


def test_normal_moments_formed_once_per_span(otsuki_mesh, otsuki_op):
    # theorem_check and chain_sweep both read the moments of the one
    # quadrature pass of trial_forms: the products of a separate moment
    # pass bit for bit, and the v0 of each delta2 comes from them
    forms = _forms(otsuki_mesh, otsuki_op)
    theorem = theorem_check(forms, 0.5, 12)
    chain_sweep(forms, draws=5, seed=0)
    assert theorem_check(forms, 0.3, 12).v0.tobytes() == _v0(
        forms, 0.7)[0].tobytes()
    assert ([Q.tobytes() for Q in forms.moments]
            == [Q.tobytes() for Q in _normal_moments(otsuki_mesh)])
    assert theorem.v0.tobytes() == _v0(forms, 0.5)[0].tobytes()


def test_chain_sweep_validates_draws(sphere_mesh, sphere_op):
    forms = _forms(sphere_mesh, sphere_op)
    for draws in (0, -3):
        with pytest.raises(InvalidParameterError, match="draws"):
            chain_sweep(forms, draws=draws)
    with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
        chain_sweep(forms, draws=2, seed=-1)


def test_chain_single_term_case(otsuki_mesh, otsuki_op):
    forms = _forms(otsuki_mesh, otsuki_op)
    v0, _ = _v0(forms, 0.5)
    (rec,) = paperlab._chain_records(
        forms.block("rho")[1:], forms.n, forms.lam1, np.zeros(1), np.zeros(1),
        np.array([[1.0, 0, 0, 0]]), np.array([0.5]), v0[None])
    # f = l_w alone: the direct value reduces to -int |A|^2 l_w^2 up to
    # the discrete residual of the coordinate eigenvalue identity
    assert rec.L0 < 0
    assert abs(rec.L0 - rec.L0e) < 1e-2 * rec.scale


def test_chain_ordering_vacuous_on_sphere(sphere_mesh, sphere_op):
    records, _ = chain_sweep(_forms(sphere_mesh, sphere_op), draws=10,
                             seed=0)
    # lambda1 = -2 > -2n + tol: the ground-level substitution step does
    # not apply, and indeed L1 can fall below L0 here
    assert records[0].lambda1 > -4 + 0.05


def test_chain_ordering_gap_is_discretization_limited(otsuki_mesh,
                                                      otsuki_op):
    # the substitution L0 -> L1 uses lambda1 <= -2n; discretely the
    # expansion L0 = L0e holds only up to an O(h^2) residual, so the
    # ordering margin is bounded by that residual rather than by zero
    records, _ = chain_sweep(_forms(otsuki_mesh, otsuki_op), draws=50,
                             seed=0)
    worst = min((r.L1 - r.L0) / r.scale for r in records)
    assert worst > -5e-3   # small, resolution-limited violation band


# ----------------------------------------------------------------- probe

def test_conjecture_probe_clifford(clifford_mesh, clifford_op):
    report, flag = conjecture_probe(
        _forms(clifford_mesh, clifford_op, ground=False))
    assert report.basis_labels[0] == "one"
    assert report.rank == 5
    assert report.neg_inertia == 5
    assert not flag   # bounded by the collapsed rank
    # int 1 J(1) = -(n + |A|^2)|M| = -2n|M| for the product torus
    assert abs(report.B[0, 0] + 4 * clifford_mesh.area) < 1e-10


def test_conjecture_probe_equator(sphere_mesh, sphere_op):
    report, flag = conjecture_probe(
        _forms(sphere_mesh, sphere_op, ground=False))
    assert report.rank == 4
    assert report.neg_inertia >= 1
    assert abs(report.B[0, 0] + 2 * sphere_mesh.area) < 1e-10
    assert not flag


def test_conjecture_probe_otsuki(otsuki_mesh, otsuki_op):
    report, flag = conjecture_probe(
        _forms(otsuki_mesh, otsuki_op, ground=False))
    assert report.rank == 9
    assert report.neg_inertia >= 6
    assert flag
    # Rayleigh-Ritz: never exceeds the spectral index
    assert report.neg_inertia <= spectral.morse_index(otsuki_op)[0]
