"""Discretizations of the stability form on surfaces in S^3.

Meshes carry flat triangles between on-sphere vertices plus per-triangle
quadrature data (3-point edge-midpoint rule, exact for quadratics on the
flat element).  Geometric fields (normal, |A|^2, area element) are
sampled analytically from the source family whenever one is attached.
The stability operator enters through the pencil B = K - W where
W integrates (n + |A|^2) against the nodal basis.

``assemble`` builds piecewise-linear (P1) elements on any mesh;
``assemble_spectral`` builds a Fourier pseudo-spectral operator set on
the node grid of a structured torus mesh with an orthogonal chart.
Both act on the same nodal vectors (vertex values).
"""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import (DegenerateElementError, InvalidParameterError,
                     MeshFormatError)
from .geometry import GeometryFamily
from .spectral import PhiModes

# barycentric coordinates of the three edge midpoints
_PHI = np.array([[0.5, 0.5, 0.0],
                 [0.0, 0.5, 0.5],
                 [0.5, 0.0, 0.5]])
# reference gradients of the hat functions
_DREF = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_AREA_TOL = 1e-14


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated surface in S^3 with quadrature-point geometry.

    quad_weights are the flat-triangle weights (sum = triangle area);
    quad_measure carries the curved area element when the mesh comes
    from an analytic chart, and equals quad_weights otherwise.
    """

    name: str
    vertices: np.ndarray        # (V, 4) unit vectors
    triangles: np.ndarray       # (T, 3) int, consistently oriented
    vertex_nu: np.ndarray       # (V, 4)
    vertex_asq: np.ndarray      # (V,)
    quad_points: np.ndarray     # (T, 3, 4) flat-interpolated positions
    quad_weights: np.ndarray    # (T, 3)
    quad_measure: np.ndarray    # (T, 3)
    quad_nu: np.ndarray         # (T, 3, 4)
    quad_asq: np.ndarray        # (T, 3)
    quad_params: Optional[np.ndarray] = None   # (T, 3, 2) chart coords
    vertex_params: Optional[np.ndarray] = None  # (V, 2)
    source_family: Optional[GeometryFamily] = None
    degraded_normals: bool = False
    surface_dim: int = 2
    grid_shape: Optional[tuple] = None   # (nt, nphi) of a structured chart

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def area(self):
        return float(self.quad_weights.sum())

    @property
    def num_edges(self):
        e = np.sort(np.concatenate([self.triangles[:, [0, 1]],
                                    self.triangles[:, [1, 2]],
                                    self.triangles[:, [2, 0]]]), axis=1)
        return len(np.unique(e, axis=0))

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_triangles


@dataclass(frozen=True)
class OperatorSet:
    """Assembled matrices of the weak stability form.

    K is the stiffness, Mm the mass, W the (n + |A|^2)-weighted mass;
    the quadratic form of the stability operator is x^T (K - W) x.
    B = K - W, the |A|^2-weighted mass SA = W - n Mm and the phi-mode
    split of the pencil are built on first use and kept.
    """

    K: sp.csr_matrix
    Mm: sp.csr_matrix
    W: sp.csr_matrix
    n: int
    q_max: float   # max of n + |A|^2 over quadrature points
    grid_shape: Optional[tuple] = None   # (nt, nphi) of a structured chart

    @cached_property
    def B(self):
        return (self.K - self.W).tocsr()

    @cached_property
    def SA(self):
        return (self.W - self.n * self.Mm).tocsr()

    @cached_property
    def phi_modes(self):
        """The pencil split over phi-Fourier modes (``spectral.PhiModes``),
        or None off a chart grid or where B or Mm is not invariant under
        the one-step shift in phi."""
        return PhiModes.build(self.B, self.Mm, self.grid_shape)

    @property
    def size(self):
        return self.K.shape[0]


def _check_orientation(triangles, num_vertices):
    """Directed interior edges must each appear exactly once."""
    tris = np.asarray(triangles)
    if tris.min() < 0 or tris.max() >= num_vertices:
        raise MeshFormatError("triangle index out of range")
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                               tris[:, [2, 0]]])
    _, counts = np.unique(directed, axis=0, return_counts=True)
    if counts.max() > 1:
        raise MeshFormatError("inconsistent triangle orientation "
                              "(repeated directed edge)")


def mesh_torus(family, nt, nphi):
    """Structured periodic mesh of a doubly periodic chart.

    Each grid cell is split into two triangles; per-triangle parameter
    coordinates are kept unwrapped so quadrature midpoints never jump
    across the periodic seam.
    """
    if nt < 8 or nphi < 8:
        raise InvalidParameterError("torus mesh resolutions must be >= 8")
    if not family.doubly_periodic:
        raise InvalidParameterError(
            f"{family.name} is not a doubly periodic surface chart")
    lt, lp = family.param_domain.spans()
    dt, dp = lt / nt, lp / nphi
    I, J = np.meshgrid(np.arange(nt), np.arange(nphi), indexing="ij")
    ii, jj = I.ravel(), J.ravel()
    vparams = np.stack([ii * dt, jj * dp], axis=-1)
    vertices = family.position(vparams)
    vertex_nu = family.normal(vparams)
    vertex_asq = family.asq(vparams)

    def vid(i, j):
        return (i % nt) * nphi + (j % nphi)

    t1 = np.stack([vid(ii, jj), vid(ii + 1, jj), vid(ii + 1, jj + 1)], axis=1)
    t2 = np.stack([vid(ii, jj), vid(ii + 1, jj + 1), vid(ii, jj + 1)], axis=1)
    triangles = np.concatenate([t1, t2])

    def corner(i, j):
        return np.stack([i * dt, j * dp], axis=-1)

    p1 = np.stack([corner(ii, jj), corner(ii + 1, jj),
                   corner(ii + 1, jj + 1)], axis=1)
    p2 = np.stack([corner(ii, jj), corner(ii + 1, jj + 1),
                   corner(ii, jj + 1)], axis=1)
    tri_params = np.concatenate([p1, p2])
    quad_params = np.einsum("qc,tcd->tqd", _PHI, tri_params)
    quad_points = np.einsum("qc,tcd->tqd", _PHI, vertices[triangles])
    quad_nu = family.normal(quad_params)
    quad_asq = family.asq(quad_params)
    area = _triangle_areas(vertices, triangles)
    quad_weights = np.repeat(area[:, None] / 3.0, 3, axis=1)
    param_area = 0.5 * dt * dp
    quad_measure = family.sqrt_det_g(quad_params) * (param_area / 3.0)
    return SurfaceMesh(
        name=f"{family.name}@{nt}x{nphi}",
        vertices=vertices, triangles=triangles,
        vertex_nu=vertex_nu, vertex_asq=np.asarray(vertex_asq, float),
        quad_points=quad_points, quad_weights=quad_weights,
        quad_measure=quad_measure, quad_nu=quad_nu,
        quad_asq=np.asarray(quad_asq, float),
        quad_params=quad_params, vertex_params=vparams,
        source_family=family, grid_shape=(nt, nphi))


# base icosahedron: 12 vertices, 20 consistently oriented (outward) faces
_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_V = np.array([
    [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
    [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
    [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
], dtype=float)
_ICO_F = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
])


def mesh_sphere(subdivisions):
    """Icosphere mesh of the equatorial S^2 inside S^3.

    All vertices lie in the hyperplane w = 0; the unit normal of the
    totally geodesic equator is the constant fourth axis and |A|^2 = 0.
    """
    if subdivisions < 1:
        raise InvalidParameterError("subdivisions must be >= 1")
    verts = _ICO_V / np.linalg.norm(_ICO_V, axis=1, keepdims=True)
    faces = _ICO_F.copy()
    for _ in range(subdivisions):
        edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                                        faces[:, [2, 0]]]), axis=1)
        uniq, inv = np.unique(edges, axis=0, return_inverse=True)
        mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        base = len(verts)
        verts = np.concatenate([verts, mid])
        m01 = base + inv[: len(faces)]
        m12 = base + inv[len(faces): 2 * len(faces)]
        m20 = base + inv[2 * len(faces):]
        a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
        faces = np.concatenate([
            np.stack([a, m01, m20], axis=1),
            np.stack([b, m12, m01], axis=1),
            np.stack([c, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1)])
    V = len(verts)
    vertices = np.concatenate([verts, np.zeros((V, 1))], axis=1)
    nu = np.zeros((V, 4))
    nu[:, 3] = 1.0
    quad_points = np.einsum("qc,tcd->tqd", _PHI, vertices[faces])
    area = _triangle_areas(vertices, faces)
    quad_weights = np.repeat(area[:, None] / 3.0, 3, axis=1)
    T = len(faces)
    quad_nu = np.zeros((T, 3, 4))
    quad_nu[..., 3] = 1.0
    return SurfaceMesh(
        name=f"equator(2)@ico{subdivisions}",
        vertices=vertices, triangles=faces,
        vertex_nu=nu, vertex_asq=np.zeros(V),
        quad_points=quad_points, quad_weights=quad_weights,
        quad_measure=quad_weights.copy(), quad_nu=quad_nu,
        quad_asq=np.zeros((T, 3)))


def _triangle_areas(vertices, triangles):
    P = vertices[triangles]
    e1 = P[:, 1] - P[:, 0]
    e2 = P[:, 2] - P[:, 0]
    g11 = np.einsum("ti,ti->t", e1, e1)
    g22 = np.einsum("ti,ti->t", e2, e2)
    g12 = np.einsum("ti,ti->t", e1, e2)
    return 0.5 * np.sqrt(np.maximum(g11 * g22 - g12 ** 2, 0.0))


def assemble(mesh):
    """Stiffness, mass and potential-weighted mass of the mesh.

    Flat P1 elements; the potential q = n + |A|^2 is integrated with the
    3-point midpoint rule using the analytically sampled quad_asq.
    """
    V = mesh.num_vertices
    tris = mesh.triangles
    P = mesh.vertices[tris]
    e1 = P[:, 1] - P[:, 0]
    e2 = P[:, 2] - P[:, 0]
    G = np.empty((len(tris), 2, 2))
    G[:, 0, 0] = np.einsum("ti,ti->t", e1, e1)
    G[:, 1, 1] = np.einsum("ti,ti->t", e2, e2)
    G[:, 0, 1] = G[:, 1, 0] = np.einsum("ti,ti->t", e1, e2)
    detg = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
    area = 0.5 * np.sqrt(np.maximum(detg, 0.0))
    if area.min() < _AREA_TOL:
        bad = int(np.argmin(area))
        raise DegenerateElementError(
            f"triangle {bad} has area {area.min():.3e}")
    Ginv = np.empty_like(G)
    Ginv[:, 0, 0] = G[:, 1, 1] / detg
    Ginv[:, 1, 1] = G[:, 0, 0] / detg
    Ginv[:, 0, 1] = Ginv[:, 1, 0] = -G[:, 0, 1] / detg
    Kloc = area[:, None, None] * np.einsum("ab,tbc,dc->tad", _DREF, Ginv, _DREF)
    w = mesh.quad_weights
    n = mesh.surface_dim
    Mloc = np.einsum("tq,qa,qb->tab", w, _PHI, _PHI)
    Wloc = np.einsum("tq,qa,qb->tab", w * (n + mesh.quad_asq), _PHI, _PHI)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()

    def scatter(loc):
        A = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(V, V)).tocsr()
        return ((A + A.T) * 0.5).tocsr()

    return OperatorSet(K=scatter(Kloc), Mm=scatter(Mloc), W=scatter(Wloc),
                       n=n, q_max=float((n + mesh.quad_asq).max()),
                       grid_shape=mesh.grid_shape)


def _fourier_diff(N, length):
    """Fourier differentiation matrix on N equispaced nodes of one period.

    Odd N only: entry (j, k) is (pi/length)(-1)^(j-k) csc(pi (j-k)/N)
    off the diagonal and zero on it (Trefethen, Spectral Methods in
    MATLAB, ch. 3).
    """
    k = np.arange(N)
    d = k[:, None] - k[None, :]
    off = d != 0
    D = np.zeros((N, N))
    D[off] = ((-1.0) ** d[off]) / np.sin(np.pi * d[off] / N)
    return (np.pi / length) * D


def assemble_spectral(mesh):
    """Fourier pseudo-spectral stiffness, mass and potential mass.

    The nodes are the vertices of a ``mesh_torus`` grid with both sides
    odd.  With D_a the differentiation matrix along chart direction a
    and nodal weights w = dt*dphi*sqrt(g), the operators are
    K = sum_a D_a^T diag(w / g_aa) D_a, Mm = diag(w) and
    W = diag(w (n + |A|^2)).  They meet the identities
    Delta l_v = -n l_v and Delta f_v = -|A|^2 f_v at the nodes to
    spectral accuracy rather than O(h^2).  The chart must be orthogonal
    (g_12 = 0); an even side would leave the Nyquist mode in the kernel
    of D and add spurious low eigenvalues.
    """
    if (mesh.grid_shape is None or mesh.source_family is None
            or mesh.vertex_params is None):
        raise InvalidParameterError(
            f"{mesh.name} has no structured chart grid; spectral "
            "assembly needs a mesh_torus mesh")
    nt, nphi = mesh.grid_shape
    if nt % 2 == 0 or nphi % 2 == 0:
        raise InvalidParameterError(
            f"spectral assembly needs odd grid sides, got {nt}x{nphi}")
    family = mesh.source_family
    lt, lp = family.param_domain.spans()
    T = family.tangents(mesh.vertex_params)
    g = np.einsum("vai,vbi->vab", T, T)
    g11, g22, g12 = g[:, 0, 0], g[:, 1, 1], g[:, 0, 1]
    if np.abs(g12).max() > 1e-10 * np.sqrt(g11 * g22).max():
        raise InvalidParameterError(
            f"{mesh.name}: chart is not orthogonal "
            f"(max |g_12| = {np.abs(g12).max():.3e})")
    w = (lt / nt) * (lp / nphi) * np.sqrt(g11 * g22 - g12 ** 2)
    ct = (w / g11).reshape(nt, nphi)
    cp = (w / g22).reshape(nt, nphi)
    Dt, Dp = _fourier_diff(nt, lt), _fourier_diff(nphi, lp)
    # one dense block per grid line: Kt[j] = Dt^T diag(ct[:, j]) Dt
    # couples nodes (i, j) and (l, j); Kp[i] couples (i, j) and (i, m)
    Kt = (Dt.T[None] * ct.T[:, None, :]) @ Dt
    Kp = (Dp.T[None] * cp[:, None, :]) @ Dp
    node = np.arange(nt * nphi).reshape(nt, nphi)
    rows = np.concatenate([
        np.broadcast_to(node.T[:, :, None], Kt.shape).ravel(),
        np.broadcast_to(node[:, :, None], Kp.shape).ravel()])
    cols = np.concatenate([
        np.broadcast_to(node.T[:, None, :], Kt.shape).ravel(),
        np.broadcast_to(node[:, None, :], Kp.shape).ravel()])
    K = sp.coo_matrix((np.concatenate([Kt.ravel(), Kp.ravel()]),
                       (rows, cols)), shape=(node.size,) * 2).tocsr()
    n = mesh.surface_dim
    q = n + mesh.vertex_asq
    return OperatorSet(K=((K + K.T) * 0.5).tocsr(),
                       Mm=sp.diags(w).tocsr(), W=sp.diags(w * q).tocsr(),
                       n=n, q_max=float(q.max()), grid_shape=mesh.grid_shape)


def l_vertex(mesh, v):
    """Nodal values of <x, v>."""
    return mesh.vertices @ np.asarray(v, dtype=float)


def f_vertex(mesh, v):
    """Nodal values of <nu, v>."""
    return mesh.vertex_nu @ np.asarray(v, dtype=float)


def mesh_to_json(mesh):
    """Interchange dictionary: vertices, triangles and per-vertex |A|^2."""
    return {
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "fields": {"Asq": mesh.vertex_asq.tolist()},
    }


def save_mesh(mesh, path):
    with open(path, "w") as fh:
        json.dump(mesh_to_json(mesh), fh)


def mesh_from_json(doc, name="imported"):
    """Rebuild a SurfaceMesh from the interchange dictionary.

    No analytic source is available, so the normal is reconstructed
    per-triangle (the unique direction tangent to S^3 and orthogonal to
    the face); the mesh is flagged as having degraded normals.
    """
    if not isinstance(doc, dict):
        raise MeshFormatError("mesh document must be a JSON object")
    for key in ("vertices", "triangles"):
        if key not in doc:
            raise MeshFormatError(f"mesh document missing '{key}'")
    vertices = np.asarray(doc["vertices"], dtype=float)
    triangles = np.asarray(doc["triangles"], dtype=int)
    if vertices.ndim != 2 or vertices.shape[1] != 4:
        raise MeshFormatError("vertices must be an array of R^4 points")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshFormatError("triangles must be an array of index triples")
    norms = np.linalg.norm(vertices, axis=1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise MeshFormatError("vertices must lie on the unit sphere")
    vertices = vertices / norms[:, None]
    fields = doc.get("fields", {})
    if "Asq" not in fields:
        raise MeshFormatError(
            "imported meshes must carry a per-vertex 'Asq' field")
    vertex_asq = np.asarray(fields["Asq"], dtype=float)
    if vertex_asq.shape != (len(vertices),):
        raise MeshFormatError("'Asq' must hold one value per vertex")
    if vertex_asq.min() < 0:
        raise MeshFormatError("'Asq' values must be nonnegative")
    _check_orientation(triangles, len(vertices))
    P = vertices[triangles]
    e1 = P[:, 1] - P[:, 0]
    e2 = P[:, 2] - P[:, 0]
    centroid = P.mean(axis=1)
    centroid /= np.linalg.norm(centroid, axis=1, keepdims=True)
    M = np.stack([centroid, e1, e2], axis=1)
    tri_nu = np.empty((len(triangles), 4))
    cols = np.arange(4)
    for i in range(4):
        tri_nu[:, i] = ((-1.0) ** i) * np.linalg.det(M[:, :, cols != i])
    tri_norm = np.linalg.norm(tri_nu, axis=1, keepdims=True)
    if tri_norm.min() < _AREA_TOL:
        raise DegenerateElementError("degenerate triangle in imported mesh")
    tri_nu /= tri_norm
    # vertex normal: area-weighted average of incident face normals
    area = _triangle_areas(vertices, triangles)
    vertex_nu = np.zeros((len(vertices), 4))
    for c in range(3):
        np.add.at(vertex_nu, triangles[:, c], area[:, None] * tri_nu)
    vn = np.linalg.norm(vertex_nu, axis=1, keepdims=True)
    vertex_nu = np.divide(vertex_nu, vn, out=np.zeros_like(vertex_nu),
                          where=vn > 0)
    quad_points = np.einsum("qc,tcd->tqd", _PHI, P)
    quad_weights = np.repeat(area[:, None] / 3.0, 3, axis=1)
    quad_nu = np.repeat(tri_nu[:, None, :], 3, axis=1)
    quad_asq = np.einsum("qc,tc->tq", _PHI, vertex_asq[triangles])
    return SurfaceMesh(
        name=name, vertices=vertices, triangles=triangles,
        vertex_nu=vertex_nu, vertex_asq=vertex_asq,
        quad_points=quad_points, quad_weights=quad_weights,
        quad_measure=quad_weights.copy(), quad_nu=quad_nu,
        quad_asq=quad_asq, degraded_normals=True)


def load_mesh(path, name=None):
    with open(path) as fh:
        doc = json.load(fh)
    return mesh_from_json(doc, name=name or str(path))
