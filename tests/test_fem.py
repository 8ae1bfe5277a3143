"""Meshing and matrix assembly."""

import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import _fourier_diff, chart_set, whole_scatter
from mhs import fem, rotational, spectral
from mhs.errors import (DegenerateElementError, GenerationFailedError,
                        InvalidParameterError, MeshFormatError)
from mhs.fem import (assemble, mesh_from_json, mesh_sphere, mesh_to_json,
                     mesh_torus)
from mhs.closedform import clifford_jacobi
from mhs.geometry import FIELDS, GeometryFamily, clifford
from mhs.spectral import lowest_eigs, morse_index


def test_torus_mesh_invariants(clifford_mesh):
    m = clifford_mesh
    assert np.abs(np.linalg.norm(m.vertices, axis=1) - 1.0).max() < 1e-12
    # chart quadrature points are exact surface points, not flat midpoints
    assert np.abs(np.linalg.norm(m.quad_points, axis=2) - 1.0).max() < 1e-12
    assert m.euler_characteristic == 0
    assert np.all(m.quad_weights > 0)
    # per-triangle weights sum to the flat area
    from mhs.fem import _triangle_areas
    areas = _triangle_areas(m.vertices, m.triangles)
    assert np.abs(m.quad_weights.sum(axis=1) - areas).max() < 1e-12


def test_torus_mesh_area(clifford_mesh):
    assert abs(clifford_mesh.area - 2 * np.pi ** 2) < 1e-3 * 2 * np.pi ** 2


def test_torus_mesh_constant_asq(clifford_mesh):
    assert np.abs(clifford_mesh.quad_asq - 2.0).max() < 1e-12


def test_torus_resolution_guard(clifford_profile):
    with pytest.raises(InvalidParameterError):
        mesh_torus(clifford(2, 1), 4, 64)
    with pytest.raises(InvalidParameterError, match=">= 8"):
        fem.assemble_spectral(clifford_profile, 7)


def test_sphere_mesh_invariants(sphere_mesh):
    m = sphere_mesh
    assert m.num_vertices == 10 * 4 ** 4 + 2
    assert m.euler_characteristic == 2
    assert abs(m.area - 4 * np.pi) < 1e-2 * 4 * np.pi
    assert np.abs(m.quad_asq).max() == 0.0
    assert np.abs(m.vertices[:, 3]).max() == 0.0


def test_sphere_subdivision_guard():
    with pytest.raises(InvalidParameterError):
        mesh_sphere(0)
    # ico8 would hold 655,362 vertices; refused before any refinement
    with pytest.raises(InvalidParameterError):
        mesh_sphere(8)


@pytest.mark.parametrize("subdivisions", [1, 2, 3, 4, 5])
def test_sphere_mesh_matches_row_sort_reference(subdivisions):
    # the one-key edge sort numbers the midpoints as the lexicographic
    # row sort did, so the mesh is the same to the bit
    verts = fem._ICO_V / np.linalg.norm(fem._ICO_V, axis=1, keepdims=True)
    faces = fem._ICO_F.copy()
    for _ in range(subdivisions):
        edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                        faces[:, [2, 0]]]), axis=1)
        uniq, inv = np.unique(edges, axis=0, return_inverse=True)
        mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        m01, m12, m20 = (len(verts) + inv).reshape(3, -1)
        verts = np.concatenate([verts, mid])
        a, b, c = faces.T
        faces = np.concatenate([np.stack([a, m01, m20], axis=1),
                                np.stack([b, m12, m01], axis=1),
                                np.stack([c, m20, m12], axis=1),
                                np.stack([m01, m12, m20], axis=1)])
    mesh = mesh_sphere(subdivisions)
    assert mesh.triangles.dtype == faces.dtype
    assert np.array_equal(mesh.triangles, faces)
    assert np.array_equal(mesh.vertices[:, :3], verts)
    assert mesh.num_edges == 30 * 4 ** subdivisions
    assert mesh.euler_characteristic == 2


def _einsum_operators(mesh):
    """K, Mm and W with the element matrices as three-operand einsums."""
    tris, V = mesh.triangles, mesh.num_vertices
    P = mesh.vertices[tris]
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    G = np.empty((len(tris), 2, 2))
    G[:, 0, 0] = np.einsum("ti,ti->t", e1, e1)
    G[:, 1, 1] = np.einsum("ti,ti->t", e2, e2)
    G[:, 0, 1] = G[:, 1, 0] = np.einsum("ti,ti->t", e1, e2)
    detg = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
    area = 0.5 * np.sqrt(np.maximum(detg, 0.0))
    Ginv = np.empty_like(G)
    Ginv[:, 0, 0] = G[:, 1, 1] / detg
    Ginv[:, 1, 1] = G[:, 0, 0] / detg
    Ginv[:, 0, 1] = Ginv[:, 1, 0] = -G[:, 0, 1] / detg
    D = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    w, q = mesh.quad_weights, mesh.surface_dim + mesh.quad_asq
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    operators = []
    for loc in (area[:, None, None] * np.einsum("ab,tbc,dc->tad",
                                                D, Ginv, D),
                np.einsum("tq,qa,qb->tab", w, fem._PHI, fem._PHI),
                np.einsum("tq,qa,qb->tab", w * q, fem._PHI, fem._PHI)):
        A = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(V, V)).tocsr()
        operators.append(((A + A.T) * 0.5).tocsr())
    return operators


@pytest.mark.parametrize("name", ["ico3", "clifford44", "otsuki64x16"])
def test_assembly_matches_einsum_reference(name, clifford_family,
                                           otsuki_profile):
    # the written-out element matrices add in the einsums' order; on the
    # Otsuki chart a plain D @ Ginv @ D.T differs in the last bit.  A
    # chart mesh scatters whole without its grid; with it, its chart lines
    # hold the reference's block rows 0 bit for bit
    mesh = {"ico3": lambda: mesh_sphere(3),
            "clifford44": lambda: mesh_torus(clifford_family, 44, 44),
            "otsuki64x16": lambda: mesh_torus(
                rotational.build_surface(otsuki_profile), 64, 16)}[name]()
    refs = _einsum_operators(mesh)
    whole = whole_scatter(mesh)
    ops = assemble(mesh)
    nphi = 1 if mesh.grid_shape is None else mesh.grid_shape[1]
    for got, ref in zip((whole.K, whole.Mm, whole.W, ops.K, ops.Mm, ops.W),
                        refs + [A[::nphi] for A in refs]):
        got = got.row if isinstance(got, spectral.ChartLine) else got
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))
    assert isinstance(ops.K, spectral.ChartLine) == (name != "ico3")


def test_orientation_consistency(clifford_mesh, sphere_mesh):
    from mhs.fem import _check_orientation
    _check_orientation(clifford_mesh.triangles, clifford_mesh.num_vertices)
    _check_orientation(sphere_mesh.triangles, sphere_mesh.num_vertices)
    # a triangle repeated with its orientation kept repeats its edges
    tris = np.concatenate([sphere_mesh.triangles,
                           sphere_mesh.triangles[[7]]])
    with pytest.raises(MeshFormatError, match="repeated directed edge"):
        _check_orientation(tris, sphere_mesh.num_vertices)


def test_operator_invariants(clifford_op, clifford_mesh):
    ops = clifford_op
    # the whole scatter is symmetric bit for bit; the chart lines apply
    # it by their block rows (test_chart_line_products_match_the_whole_scatter)
    whole = whole_scatter(clifford_mesh)
    for A in (whole.K, whole.Mm, whole.W):
        assert abs(A - A.T).max() == 0.0
    # constants in the stiffness kernel
    assert np.abs(ops.K @ np.ones(ops.size)).max() < 1e-12
    # partition of unity
    ones = np.ones(ops.size)
    assert abs(ones @ (ops.Mm @ ones) - clifford_mesh.area) < 1e-12
    # constant potential: W is an exact multiple of the mass matrix
    assert abs((ops.W - 4.0 * ops.Mm).row).max() < 1e-12
    # |A|^2-weighted mass is positive semidefinite: its lowest eigenvalue
    # exceeds -1e-10 exactly when a shift by 1e-10 makes it definite.
    # W - 2 Mm is block-circulant in phi, so that holds exactly when it
    # holds for every phi-mode, each a banded Cholesky factorization
    nt, nphi = clifford_mesh.grid_shape
    modes = spectral.PhiModes(nt, nphi, (ops.W - 2 * ops.Mm).row,
                              sp.identity(ops.size, format="csr")[::nphi])
    assert all(modes.positive(k, -1e-10) for k in range(modes.count))


def test_chart_line_products_match_the_whole_scatter(
        otsuki_mesh, otsuki_op, clifford_mesh, clifford_op, otsuki_op_kron):
    # a chart line applied by its block row, P1 and the diagonal Mm and W
    # of a Kronecker set, against the whole scatter's or the Kronecker
    # products to 1e-14 of scale, and the same count of
    # stored entries: block row 0 of Otsuki's K holds 1e-18 roundoff
    # where the whole scatter sums to exact zeros in some other
    # phi-columns, and the line counts those entries in every column
    coarse = mesh_torus(otsuki_mesh.source_family, 64, 16)
    pairs = [(getattr(ops, name), getattr(whole_scatter(mesh), name))
             for mesh, ops in ((otsuki_mesh, otsuki_op),
                               (coarse, assemble(coarse)),
                               (clifford_mesh, clifford_op))
             for name in ("K", "Mm", "W", "B", "SA")]
    diagonal = chart_set(otsuki_op_kron, 17)
    pairs += [(diagonal.Mm, otsuki_op_kron.Mm), (diagonal.W, otsuki_op_kron.W)]
    rng = np.random.default_rng(7)
    for line, A in pairs:
        X = rng.standard_normal((A.shape[0], 9))
        for x in (X, X[:, 0]):
            Y = A @ x
            assert (line @ x).shape == Y.shape
            assert np.abs(line @ x - Y).max() <= 1e-14 * np.abs(Y).max()
        tiny = np.abs(line.row.data) <= 1e-15 * np.abs(line.row.data).max()
        assert A.nnz <= line.nnz <= A.nnz + line.nphi * tiny.sum()
        assert line.nnz == A.nnz or tiny.any()
        # no V x V matrix is formed to combine a line with a matrix
        for combine in (lambda: line + A, lambda: line - A,
                        lambda: A + line, lambda: A - line):
            with pytest.raises(TypeError):
                combine()


def test_operator_set_caches_pencil_parts(clifford_op):
    ops = clifford_op
    assert ops.B is ops.B and ops.SA is ops.SA
    # chart lines combine by their rows
    assert abs(ops.B.row - (ops.K.row - ops.W.row)).max() == 0.0
    assert abs(ops.SA.row - (ops.W.row - ops.n * ops.Mm.row)).max() == 0.0


def test_assembly_deterministic(clifford_family):
    m1 = mesh_torus(clifford_family, 16, 16)
    m2 = mesh_torus(clifford_family, 16, 16)
    o1, o2 = assemble(m1), assemble(m2)
    assert np.array_equal(o1.K.row.data, o2.K.row.data)
    assert np.array_equal(o1.W.row.data, o2.W.row.data)


def test_degenerate_triangle_rejected(sphere_mesh):
    bad_vertices = sphere_mesh.vertices.copy()
    bad_vertices[sphere_mesh.triangles[0, 1]] = \
        bad_vertices[sphere_mesh.triangles[0, 0]]
    broken = dataclasses.replace(sphere_mesh, vertices=bad_vertices)
    with pytest.raises(DegenerateElementError):
        assemble(broken)


def test_project_and_rayleigh(clifford_mesh, clifford_op):
    def quotient(x):
        return (x @ (clifford_op.K @ x)) / (x @ (clifford_op.Mm @ x))

    v = np.array([1.0, 0.0, 0.0, 0.0])
    assert abs(quotient(clifford_mesh.vertices @ v) - 2.0) < 2e-2
    assert abs(quotient(clifford_mesh.vertex_nu @ v) - 2.0) < 2e-2
    assert abs(quotient(np.ones(clifford_mesh.num_vertices))) < 1e-12


def test_mesh_json_round_trip(clifford_family, tmp_path):
    mesh = mesh_torus(clifford_family, 16, 16)
    doc = json.loads(json.dumps(mesh_to_json(mesh)))
    clone = mesh_from_json(doc, name="clone")
    assert clone.degraded_normals
    assert clone.num_vertices == mesh.num_vertices
    assert abs(clone.area - mesh.area) < 1e-12
    assert clone.euler_characteristic == 0
    # reconstructed per-triangle normals agree with the analytic
    # midpoint normals up to sign and one-cell resolution error
    dots = np.abs(np.einsum("tqi,tqi->tq", clone.quad_nu, mesh.quad_nu))
    assert dots.min() > 0.99
    ops_clone = assemble(clone)
    ops = whole_scatter(mesh)
    assert abs(ops_clone.K - ops.K).max() < 1e-12
    # file round trip
    path = tmp_path / "mesh.json"
    fem.save_mesh(mesh, path)
    assert fem.load_mesh(path).num_triangles == mesh.num_triangles


def test_mesh_import_validation():
    good = mesh_to_json(mesh_sphere(1))
    with pytest.raises(MeshFormatError):
        mesh_from_json({"vertices": good["vertices"]})
    no_field = dict(good, fields={})
    with pytest.raises(MeshFormatError):
        mesh_from_json(no_field)
    off_sphere = dict(good)
    off_sphere["vertices"] = (np.asarray(good["vertices"]) * 1.5).tolist()
    with pytest.raises(MeshFormatError):
        mesh_from_json(off_sphere)
    flipped = dict(good)
    tris = np.asarray(good["triangles"]).copy()
    tris[0] = tris[0][::-1]
    flipped["triangles"] = tris.tolist()
    with pytest.raises(MeshFormatError):
        mesh_from_json(flipped)
    negative = dict(good, fields={"Asq": [-1.0] * len(good["vertices"])})
    with pytest.raises(MeshFormatError):
        mesh_from_json(negative)


def test_otsuki_mesh_matches_source(otsuki_mesh):
    m = otsuki_mesh
    assert m.euler_characteristic == 0
    assert np.abs(np.linalg.norm(m.vertices, axis=1) - 1.0).max() < 1e-12
    assert m.quad_asq.min() > 0.0
    # flat and curved quadrature masses agree at O(h^2)
    assert abs(m.quad_weights.sum() - m.quad_measure.sum()) \
        < 1e-3 * m.quad_measure.sum()


def test_spectral_rejects_even_grid(clifford_profile):
    # an even line leaves the Nyquist mode in the kernel of D
    for nt in (64, 34):
        with pytest.raises(InvalidParameterError, match="odd"):
            fem.assemble_spectral(clifford_profile, nt)


def test_spectral_checks_minimality_on_its_line(otsuki_profile):
    # dv/dtheta scaled by 1.001 is no longer the profile of a minimal
    # surface: max |trace A| on the 255 nodes of the line is 5e-3
    bent = dataclasses.replace(otsuki_profile,
                               series=1.001 * otsuki_profile.series)
    with pytest.raises(GenerationFailedError, match="minimality"):
        fem.assemble_spectral(bent, 255)


def test_spectral_operator_invariants(clifford_op_spectral):
    ops = clifford_op_spectral
    # a line is its pencils: it holds no nodal operator
    assert not any(hasattr(ops, a) for a in ("K", "Mm", "W", "B", "SA"))
    # each phase pencil of modes k <= 16 is Hermitian bit for bit, with
    # the diagonal mass diag(w) of the cell; W is diag(w q) with q = 4 on
    # the Clifford torus
    line, m = ops.phi_modes, ops.m
    w, wq = ops.line[[0, 3], :m]
    for r in range(-(line.phases // 2), line.phases // 2 + 1):
        for k in range(17):
            B, Mm = line.pencil(r, k)
            assert np.array_equal(B, B.conj().T)
            assert np.array_equal(Mm, np.diag(w))
    # constants lie in the kernel of the stiffness, so of K - W in
    # pencil (0, 0) they see -diag(w q) alone
    B = line.pencil(0, 0)[0]
    assert np.abs(B @ np.ones(m) + wq).max() < 1e-12
    # the trapezoidal rule integrates the constant area element exactly,
    # and w carries the 2 pi of phi
    assert abs(ops.line[0].sum() - 2 * np.pi ** 2) < 1e-12
    assert np.abs(ops.line[3] - 4.0 * ops.line[0]).max() < 1e-12


def _bloch_waves(m, P):
    """V_r[b m + a, a] = e^(2 pi i r b / P) / sqrt(P) of the P phases
    r = -(P-1)/2 .. (P-1)/2 of a line of P cells of m nodes, in order."""
    phases = np.arange(P) - P // 2
    b = np.arange(m * P) // m
    return phases, [np.exp(2j * np.pi * r * b / P)[:, None]
                    * np.eye(m)[np.arange(m * P) % m] / np.sqrt(P)
                    for r in phases]


@pytest.mark.parametrize("name", ["clifford_op_spectral",
                                  "otsuki_op_spectral"])
def test_spectral_set_is_its_kronecker_line(name, request):
    # the 2-D Kronecker set of the same line on an nt x nphi grid
    # (conftest.kron_set), formed whole, is the line's phase pencils of
    # its modes k <= nphi // 2: with U_k = I (x) the phi-mode
    # e^(2 pi i j k / nphi) / sqrt(nphi) and the Bloch waves V_r,
    # nphi V_r^H U_k^H (B, Mm) U_k V_s is pencil (r, k) for s = r and
    # vanishes otherwise, to 1e-13 of the largest entry; the factor nphi
    # is the grid's dphi = 2 pi / nphi, which the line's weight w holds
    # as 2 pi
    ops = request.getfixturevalue(name)
    ref = request.getfixturevalue(name.replace("_spectral", "_kron"))
    nt, nphi = ops.nt, ref.size // ops.nt
    phases, V = _bloch_waves(ops.m, ops.phases)
    for k in range(nphi // 2 + 1):
        f = np.exp(2j * np.pi * np.arange(nphi) * k / nphi) / np.sqrt(nphi)
        U = sp.kron(sp.identity(nt), f[:, None]).tocsc()
        for i, A in enumerate((ref.B, ref.Mm)):
            mode = nphi * (U.conj().T @ (A @ U)).toarray()
            scale = np.abs(mode).max()
            for r, Vr in zip(phases, V):
                got = ops.pencil(r, k)[i]
                for s, Vs in zip(phases, V):
                    want = Vr.conj().T @ mode @ Vs
                    assert np.abs((got if s == r else 0.0) - want).max() \
                        <= 1e-13 * scale


def test_spectral_set_forms_no_2d_operator():
    # Otsuki (3,5) on 425 nodes: assembly and the Morse index stay within
    # 64 MB of traced allocations, where the 2-D Kronecker K of a 425 x 25
    # grid alone holds nt^2 nphi = 4.5M entries
    profile = rotational.find_otsuki(3, 5)
    tracemalloc.start()
    try:
        index, report = morse_index(fem.assemble_spectral(profile, 425))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (index, report.nullity) == (20, 5)
    assert peak <= 64 * 2 ** 20


def test_p1_chart_set_forms_no_2d_operator(clifford_family, otsuki_mesh):
    # on the Clifford ladder and P1 Otsuki 256x64 the Morse index reads
    # only block rows 0, and every eigenvalue, mode, index and nullity
    # equals, bit for bit, that of the chart lines of the block rows 0 of
    # the set scattered whole, which alone does not split
    meshes = [mesh_torus(clifford_family, n, n) for n in (44, 64, 96, 128)]
    for mesh in meshes + [otsuki_mesh]:
        whole = whole_scatter(mesh)
        assert whole.phi_modes is None
        ref_index, ref = morse_index(chart_set(whole, mesh.grid_shape[1]))
        ops = assemble(mesh)
        index, report = morse_index(ops)
        assert all(isinstance(A, spectral.ChartLine)
                   for A in (ops.K, ops.Mm, ops.W, ops.B, ops.SA))
        assert (index, report.nullity) == (ref_index, ref.nullity)
        assert report.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert np.array_equal(report.modes, ref.modes)
        assert report.solved_modes == ref.solved_modes


def test_p1_chart_set_refuses_stale_or_bent_splits(clifford_meshes,
                                                   clifford_ops):
    mesh, ops = clifford_meshes[32], clifford_ops[32]
    index, report = morse_index(ops)
    assert (index, report.nullity, report.path) == (5, 2, "phi-modes")
    # one triangle's |A|^2 off by 1e-6 fails the element check: the mesh
    # is scattered whole, its split refused, and the count unchanged
    asq = mesh.quad_asq.copy()
    asq[37] += 1e-6
    bent = assemble(dataclasses.replace(mesh, quad_asq=asq))
    assert not isinstance(bent.W, spectral.ChartLine)
    assert bent.phi_modes is None
    bent_index, bent_report = morse_index(bent)
    assert bent_report.path == "shift-invert"
    assert (bent_index, bent_report.nullity) == (index, report.nullity)
    # W replaced on a chart-line set: twice W as a chart line splits the
    # new pencil, as the chart lines of the whole scatter with twice its W
    # do, bit for bit
    doubled = dataclasses.replace(ops, W=2.0 * ops.W)
    whole = whole_scatter(mesh)
    formed = chart_set(dataclasses.replace(whole, W=2.0 * whole.W), 32)
    got, want = (lowest_eigs(s, 12).eigenvalues for s in (doubled, formed))
    assert doubled.phi_modes is not None and got.tobytes() == want.tobytes()
    assert got[0] < report.eigenvalues[0] - 1.0


def test_spectral_clifford_landmarks(clifford_op_spectral):
    ops = clifford_op_spectral
    table = clifford_jacobi(2, 1)[0]
    exact = np.concatenate([[float(v)] * m for v, m in table.entries])
    report = lowest_eigs(ops, count=len(exact))
    assert np.abs(report.eigenvalues - exact).max() <= 1e-10
    assert morse_index(ops)[0] == 5
    # Green identities K l_v = n Mm l_v and K f_v = SA f_v at the nodes,
    # where SA = W - n Mm is the |A|^2-weighted mass, in the pencils of
    # the coordinates on the line's one cell: x_1 + i x_2 in (0, 0) and
    # x_3 in (0, 1), and the same parts of nu
    w, wq = ops.line[[0, 3]]
    for y, rhs in ((ops.frame[0], ops.n * w), (ops.frame[1], wq - ops.n * w)):
        for c, k in ((y[:, 0] + 1j * y[:, 1], 0), (y[:, 2], 1)):
            K = ops.pencil(0, k)[0] + np.diag(wq)
            res = np.abs(K @ c - rhs * c).max() / np.abs(rhs * c).max()
            assert res <= 1e-10


def _stretched_clifford():
    """The Clifford profile with theta halved, the chart t -> t/2:
    dv/dtheta = 1/2 over q = 2 periods, and g_11 != g_22."""
    return rotational.ProfileCurve(clairaut=rotational.CIRCULAR_ENERGY,
                                   p=1, q=2, series=np.array([0.5]))


def test_spectral_independent_of_chart_scale():
    # t -> t/2 on a line of 33 nodes: g_11 != g_22 and the two periods
    # differ, yet the spectral set has the area and the spectrum of the
    # same torus
    ops = fem.assemble_spectral(_stretched_clifford(), 33)
    area = 2 * np.pi ** 2
    assert abs(ops.line[0].sum() - area) <= 1e-12 * area
    table = clifford_jacobi(2, 1)[0]
    exact = np.concatenate([[float(v)] * m for v, m in table.entries])
    report = lowest_eigs(ops, count=len(exact))
    assert np.abs(report.eigenvalues - exact).max() <= 1e-10


def _counting(family):
    """family rebuilt around a sample that logs the shape of each call."""
    calls = []

    def sample(u):
        calls.append(np.shape(u))
        return family.sample(u)

    return GeometryFamily(family.name, family.periods, sample), calls


@pytest.mark.parametrize("name, grid", [("clifford", (33, 17)),
                                        ("otsuki", (63, 17))])
def test_one_sample_pass_per_point_set(name, grid, request):
    # mesh_torus samples the vertex lattice and the quadrature points,
    # each in a single pass; the quadrature points are the distinct edge
    # midpoints, nt (nphi + 1) on theta-edges, (nt + 1) nphi on
    # phi-edges and nt nphi diagonals.  assemble_spectral samples the nt
    # nodes of its line in one pass and builds no mesh
    profile = request.getfixturevalue(f"{name}_profile")
    counting, calls = _counting(rotational.build_surface(profile))
    nt, nphi = grid
    mesh_torus(counting, nt, nphi)
    assert calls == [(nt * nphi, 2), (3 * nt * nphi + nt + nphi, 2)]
    del calls[:]
    with mock.patch.object(fem, "build_surface", return_value=counting), \
            mock.patch.object(fem, "mesh_torus") as meshing:
        fem.assemble_spectral(profile, nt)
    assert calls == [(nt, 2)] and not meshing.called


@pytest.mark.parametrize("name, grid", [("clifford", (33, 17)),
                                        ("clifford", (44, 44)),
                                        ("otsuki", (63, 17))])
def test_quadrature_points_sampled_once_match_per_triangle(name, grid,
                                                          request):
    # each edge midpoint is sampled once and shared by the triangles on
    # either side; every quadrature array equals, bit for bit, the
    # per-triangle reference: barycentric midpoints of the unwrapped
    # corner parameters, sampled three to a triangle
    if name == "otsuki":
        family = rotational.build_surface(
            request.getfixturevalue("otsuki_profile"))
    else:
        family = request.getfixturevalue("clifford_family")
    nt, nphi = grid
    mesh = mesh_torus(family, nt, nphi)
    lt, lp = family.periods
    dt, dp = lt / nt, lp / nphi
    i, j = (a.ravel() for a in np.meshgrid(np.arange(nt), np.arange(nphi),
                                           indexing="ij"))
    c00, c10, c11, c01 = (np.stack([(i + a) * dt, (j + b) * dp], axis=-1)
                          for a, b in ((0, 0), (1, 0), (1, 1), (0, 1)))
    corners = np.concatenate([np.stack([c00, c10, c11], axis=1),
                              np.stack([c00, c11, c01], axis=1)])
    u = np.einsum("qc,tcd->tqd", fem._PHI, corners)
    X, _, nu, _, asq, sqrtg = family.sample(u)
    reference = {"quad_points": X, "quad_nu": nu, "quad_asq": asq,
                 "quad_measure": sqrtg * (0.5 * dt * dp / 3.0)}
    for field, ref in reference.items():
        got = getattr(mesh, field)
        assert got.shape == ref.shape, field
        assert got.tobytes() == np.asarray(ref, float).tobytes(), field


def test_mesh_ignores_swapped_views(clifford_family, otsuki_mesh_coarse):
    # pass-through wrappers around the six views, swapped in with
    # dataclasses.replace as a tracer would, leave the mesh bit for bit
    for family, grid in ((clifford_family, (44, 44)),
                         (otsuki_mesh_coarse.source_family, (128, 32))):
        wrappers = {f: (lambda u, view=getattr(family, f): view(u))
                    for f in FIELDS}
        wrapped = dataclasses.replace(family, **wrappers)
        assert all(getattr(wrapped, f) is wrappers[f] for f in FIELDS)
        ref, got = mesh_torus(family, *grid), mesh_torus(wrapped, *grid)
        for f in ("vertices", "vertex_nu", "vertex_asq", "quad_points",
                  "quad_measure", "quad_nu", "quad_asq"):
            assert getattr(got, f).tobytes() == getattr(ref, f).tobytes(), f


@pytest.mark.parametrize("name", ["otsuki", "stretched_clifford"])
def test_spectral_mode_pencil_is_one_chart_line(name, request):
    # mode k of a spectral set is the real 1-D pencil
    # (Kt + k^2 diag(w / g_22) - diag(w q), diag(w)) of the line phi = 0,
    # with Kt = D^T diag(w / g_11) D and w = dt 2 pi sqrt(g), here for
    # k <= 8; the Bloch waves V_r of the P phases of the line's period m,
    # V_r[b m + a, a] = e^(2 pi i r b / P) / sqrt(P), split it into the
    # phase pencils: V_r^H (B, Mm) V_s is pencil (r, k) for s = r and
    # vanishes otherwise
    if name == "otsuki":
        profile = request.getfixturevalue("otsuki_profile")
        ops = request.getfixturevalue("otsuki_op_spectral")
    else:
        profile = _stretched_clifford()
        ops = fem.assemble_spectral(profile, 33)
    family = rotational.build_surface(profile)
    nt, lt = ops.nt, ops.period
    u = np.stack([lt * np.arange(nt) / nt, np.zeros(nt)], axis=-1)
    T = family.tangents(u)
    g11, g22 = (np.einsum("vi,vi->v", T[:, a], T[:, a]) for a in (0, 1))
    w = (lt / nt) * (2 * np.pi) * np.sqrt(g11 * g22)
    q = ops.n + family.asq(u)
    D = _fourier_diff(nt, lt)
    Kt = D.T @ ((w / g11)[:, None] * D)
    line = ops.phi_modes
    m, P = line.m, line.phases
    assert (m, P) == ((85, 3) if name == "otsuki" else (33, 1))
    phases, V = _bloch_waves(m, P)
    for k in range(9):
        Bref = Kt + np.diag(k ** 2 * w / g22 - w * q)
        for ref in (Bref, np.diag(w)):
            scale = np.abs(ref).max()
            for r, Vr in zip(phases, V):
                A = line.pencil(r, k)[ref is not Bref]
                assert np.isrealobj(A) == (r == 0 or ref is not Bref)
                for s, Vs in zip(phases, V):
                    want = Vr.conj().T @ ref @ Vs
                    got = A if s == r else 0.0
                    assert np.abs(got - want).max() <= 1e-13 * scale
