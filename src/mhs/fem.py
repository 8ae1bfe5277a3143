"""Discretizations of the stability form on surfaces in S^3.

Meshes carry flat triangles between on-sphere vertices plus per-triangle
quadrature data (3-point edge-midpoint rule, exact for quadratics on the
flat element).  On a chart mesh the geometric fields (normal, |A|^2,
area element) are sampled analytically, one ``sample`` pass of the
source family per point set.
The stability operator enters through the pencil B = K - W where
W integrates (n + |A|^2) against the nodal basis.

``assemble`` builds piecewise-linear (P1) elements on any mesh, stated
by the block row 0 of phi-column 0 where its elements are invariant in
phi (``OperatorSet``).  ``assemble_spectral`` builds the Fourier
pseudo-spectral set of a rotational torus from its profile, with no
mesh, as four coefficient arrays on its line phi = 0
(``spectral.TwistedLine``).  Both act on vertex values of a chart grid.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import (DegenerateElementError, GenerationFailedError,
                     InvalidParameterError, MeshFormatError)
from .geometry import GeometryFamily
from .rotational import build_surface
from .spectral import (_SHIFT_TOL, ChartLine, PhiModes, TwistedLine,
                       _Pencil, dissection_order)

# barycentric coordinates of the three edge midpoints
_PHI = np.array([[0.5, 0.5, 0.0],
                 [0.0, 0.5, 0.5],
                 [0.5, 0.0, 0.5]])
# products of the hat functions at the midpoints: row q holds
# phi_a(q) phi_b(q), flattened over (a, b)
_PHI_PHI = (_PHI[:, :, None] * _PHI[:, None, :]).reshape(3, 9)
_AREA_TOL = 1e-14
_MINIMALITY_TOL = 1e-10        # max |trace A| at the vertices or line nodes
# ico7 has 163,842 vertices; each further level quadruples the mesh
_MAX_SUBDIVISIONS = 7


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated surface in S^3 with quadrature-point geometry.

    quad_weights are the flat-triangle weights (sum = triangle area).
    On a mesh from an analytic chart (source_family set) quad_points are
    the exact surface positions and quad_measure the curved area element;
    otherwise quad_points are flat-interpolated and quad_measure equals
    quad_weights.
    """

    name: str
    vertices: np.ndarray        # (V, 4) unit vectors
    triangles: np.ndarray       # (T, 3) int, consistently oriented
    vertex_nu: np.ndarray       # (V, 4)
    vertex_asq: np.ndarray      # (V,)
    quad_points: np.ndarray     # (T, 3, 4)
    quad_weights: np.ndarray    # (T, 3)
    quad_measure: np.ndarray    # (T, 3)
    quad_nu: np.ndarray         # (T, 3, 4)
    quad_asq: np.ndarray        # (T, 3)
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
        return len(np.unique(_edge_keys(self.triangles, self.num_vertices,
                                        directed=False)))

    @property
    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_triangles


@dataclass(frozen=True)
class OperatorSet(_Pencil):
    """Assembled matrices of the weak stability form.

    K is the stiffness, Mm the mass, W the (n + |A|^2)-weighted mass;
    the quadratic form of the stability operator is x^T (K - W) x.
    All three are sparse matrices, or all three chart lines
    (``spectral.ChartLine``), which are applied by their block rows and
    never formed as V x V matrices; B = K - W and SA = W - n Mm of chart
    lines are chart lines.  A set of chart lines splits over phi-modes,
    and a sparse set takes the nodal path.  The split and the
    elimination order are built on first use and kept.
    """

    K: sp.csr_matrix | ChartLine
    Mm: sp.csr_matrix | ChartLine
    W: sp.csr_matrix | ChartLine
    n: int
    q_max: float   # max of n + |A|^2 over quadrature points

    @cached_property
    def phi_modes(self):
        """The pencil split over phi-Fourier modes (``spectral.PhiModes``),
        read from the block rows 0 of B and Mm where they are chart
        lines, else None."""
        B = self.B
        if not isinstance(B, ChartLine):
            return None
        return PhiModes(B.row.shape[0], B.nphi, B.row, self.Mm.row)

    @cached_property
    def elimination_order(self):
        """Nested-dissection order of the pattern of B
        (``spectral.dissection_order``), shared by every sparse
        factorization of the unreduced pencil."""
        return dissection_order(self.B)


def _edge_keys(triangles, num_vertices, directed=True):
    """One int64 key, tail * num_vertices + head, per edge of every
    triangle: the edges 0->1 of all triangles, then 1->2, then 2->0.  An
    undirected edge runs from its smaller vertex to its larger.  The keys
    sort as the (tail, head) pairs do, and divmod(key, num_vertices)
    gives the pair back."""
    tris = np.asarray(triangles, dtype=np.int64)
    tails, heads = tris.T.ravel(), tris[:, [1, 2, 0]].T.ravel()
    if not directed:
        tails, heads = np.minimum(tails, heads), np.maximum(tails, heads)
    return tails * num_vertices + heads


def _check_orientation(triangles, num_vertices):
    """Directed interior edges must each appear exactly once."""
    tris = np.asarray(triangles)
    if tris.min() < 0 or tris.max() >= num_vertices:
        raise MeshFormatError("triangle index out of range")
    keys = _edge_keys(tris, num_vertices)
    if len(np.unique(keys)) < len(keys):
        raise MeshFormatError("inconsistent triangle orientation "
                              "(repeated directed edge)")


def mesh_torus(family, nt, nphi):
    """Structured periodic mesh of a torus chart.

    Each grid cell is split into two triangles.  The family is sampled
    twice: on the vertex lattice, the minimality self-check's grid, and
    once at each distinct quadrature point, the midpoints of the
    theta-edges, phi-edges and diagonals, which the triangles on either
    side of an edge share.  Midpoint parameters are 0.5 a + 0.5 b of the
    corner parameters i dt and j dphi, unwrapped, so a midpoint never
    jumps across the periodic seam and an edge on the seam keeps its own
    copy.
    """
    if nt < 8 or nphi < 8:
        raise InvalidParameterError("torus mesh resolutions must be >= 8")
    lt, lp = family.periods
    dt, dp = lt / nt, lp / nphi
    I, J = np.meshgrid(np.arange(nt), np.arange(nphi), indexing="ij")
    ii, jj = I.ravel(), J.ravel()
    vparams = np.stack([ii * dt, jj * dp], axis=-1)
    vertices, _, vertex_nu, A, vertex_asq, _ = family.sample(vparams)
    trace = np.abs(A[:, 0, 0] + A[:, 1, 1]).max()
    if trace > _MINIMALITY_TOL:
        raise GenerationFailedError(
            f"minimality self-check failed: max |trace A| = {trace:.3e}")

    def vid(i, j):
        return (i % nt) * nphi + (j % nphi)

    t1 = np.stack([vid(ii, jj), vid(ii + 1, jj), vid(ii + 1, jj + 1)], axis=1)
    t2 = np.stack([vid(ii, jj), vid(ii + 1, jj + 1), vid(ii, jj + 1)], axis=1)
    triangles = np.concatenate([t1, t2])

    # corner parameters with the seam's unwrapped copies, and the midpoints
    # between neighbours, rounded as the barycentric sum of _PHI rounds them
    t, p = np.arange(nt + 1) * dt, np.arange(nphi + 1) * dp
    tm, pm = 0.5 * t[:-1] + 0.5 * t[1:], 0.5 * p[:-1] + 0.5 * p[1:]
    # the midpoints of the theta-edges (i + 1/2, j), the phi-edges
    # (i, j + 1/2) and the diagonals (i + 1/2, j + 1/2), one block each
    blocks = [(tm, p), (t, pm), (tm, pm)]
    params = np.concatenate([np.stack(np.meshgrid(a, b, indexing="ij"),
                                      axis=-1).reshape(-1, 2)
                             for a, b in blocks])
    edge_t = ii * (nphi + 1) + jj
    edge_p = nt * (nphi + 1) + ii * nphi + jj
    diag = nt * (nphi + 1) + (nt + 1) * nphi + ii * nphi + jj
    # the midpoints of edges 01, 12 and 20 of each triangle
    at = np.concatenate([np.stack([edge_t, edge_p + nphi, diag], axis=1),
                         np.stack([diag, edge_t + 1, edge_p], axis=1)])
    X, _, nu, _, asq, sqrtg = family.sample(params)
    area = _triangle_areas(vertices, triangles)
    quad_weights = np.repeat(area[:, None] / 3.0, 3, axis=1)
    param_area = 0.5 * dt * dp
    quad_measure = sqrtg[at] * (param_area / 3.0)
    return SurfaceMesh(
        name=f"{family.name}@{nt}x{nphi}",
        vertices=vertices, triangles=triangles,
        vertex_nu=vertex_nu, vertex_asq=np.asarray(vertex_asq, float),
        quad_points=X[at], quad_weights=quad_weights,
        quad_measure=quad_measure, quad_nu=nu[at],
        quad_asq=np.asarray(asq, float)[at],
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
    if not 1 <= subdivisions <= _MAX_SUBDIVISIONS:
        raise InvalidParameterError(
            f"subdivisions must lie in [1, {_MAX_SUBDIVISIONS}], "
            f"got {subdivisions}")
    verts = _ICO_V / np.linalg.norm(_ICO_V, axis=1, keepdims=True)
    faces = _ICO_F.copy()
    for _ in range(subdivisions):
        base = len(verts)
        uniq, inv = np.unique(_edge_keys(faces, base, directed=False),
                              return_inverse=True)
        mid = verts[uniq // base] + verts[uniq % base]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
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


def _gram(vertices, triangles):
    """(g11, g22, g12, det): the Gram matrix of the edges from corner 0
    of every flat triangle, and its determinant."""
    P = vertices[triangles]
    e1 = P[:, 1] - P[:, 0]
    e2 = P[:, 2] - P[:, 0]
    g11, g22, g12 = (np.einsum("ti,ti->t", a, b)
                     for a, b in ((e1, e1), (e2, e2), (e1, e2)))
    return g11, g22, g12, g11 * g22 - g12 ** 2


def _triangle_areas(vertices, triangles):
    return 0.5 * np.sqrt(np.maximum(_gram(vertices, triangles)[3], 0.0))


def _column_zero(mesh, locs):
    """The triangles touching phi-column 0, as a mask, where the P1
    operators of the mesh are block-circulant in phi by their elements;
    else None.

    That needs a chart grid whose triangles come in phi-columns, triangle
    c*nt*nphi + i*nphi + j in column j as ``mesh_torus`` lays them out,
    with column j being column 0 moved j steps in phi, and every element
    matrix in locs equal to its column-0 counterpart to _SHIFT_TOL of the
    largest.
    """
    if mesh.grid_shape is None:
        return None
    nt, nphi = mesh.grid_shape
    if mesh.num_vertices != nt * nphi or mesh.num_triangles % nphi:
        return None
    tris = mesh.triangles.reshape(-1, nphi, 3)
    t0 = tris[:, :1]
    # the phi-index of every vertex of column j, were it column 0 moved
    j = (t0 + np.arange(nphi)[:, None]) % nphi
    if not np.array_equal(tris, t0 - t0 % nphi + j):
        return None
    for loc in locs:
        loc = loc.reshape(-1, nphi, 9)
        drift = loc - loc[:, :1]
        if (max(drift.max(), -drift.min())
                > _SHIFT_TOL * max(loc.max(), -loc.min())):
            return None
    return (j == 0).any(axis=-1).ravel()


def assemble(mesh):
    """Stiffness, mass and potential-weighted mass of the mesh.

    Flat P1 elements; the potential q = n + |A|^2 is integrated with the
    3-point midpoint rule using the analytically sampled quad_asq.
    Where the element matrices certify that the operators are
    block-circulant in phi (``_column_zero``), as on every ``mesh_torus``
    mesh the package builds, only the triangles touching phi-column 0
    are scattered, in their global order, and K, Mm and W are the chart
    lines (``spectral.ChartLine``) of the block rows 0 of that scatter:
    the same rows, bit for bit, as the whole scatter's.  Any other mesh
    is scattered whole into sparse matrices.
    """
    V = mesh.num_vertices
    tris = mesh.triangles
    g11, g22, g12, detg = _gram(mesh.vertices, tris)
    area = 0.5 * np.sqrt(np.maximum(detg, 0.0))
    if area.min() < _AREA_TOL:
        bad = int(np.argmin(area))
        raise DegenerateElementError(
            f"triangle {bad} has area {area.min():.3e}")
    # D G^-1 D^T, D the reference hat gradients (-1, -1), (1, 0), (0, 1),
    # written out in the entries h of G^-1; the (0, 0) entry adds all four
    # left to right, as the plain double sum over D's columns does
    h11, h22, h12 = g22 / detg, g11 / detg, -g12 / detg
    s1, s2 = -(h11 + h12), -(h12 + h22)
    Kloc = area[:, None, None] * np.stack(
        [((h11 + h12) + h12) + h22, s1, s2, s1, h11, h12, s2, h12, h22],
        axis=1).reshape(-1, 3, 3)
    w = mesh.quad_weights
    n = mesh.surface_dim
    # at most two quadrature points carry each product of hat functions,
    # so the sum over points rounds the same in any order
    Mloc, Wloc = ((c @ _PHI_PHI).reshape(-1, 3, 3)
                  for c in (w, w * (n + mesh.quad_asq)))
    locs = (Kloc, Mloc, Wloc)
    near = _column_zero(mesh, locs)
    if near is not None:
        tris, locs = tris[near], [loc[near] for loc in locs]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()

    def scatter(loc):
        A = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(V, V)).tocsr()
        return ((A + A.T) * 0.5).tocsr()

    if near is None:
        K, Mm, W = map(scatter, locs)
    else:
        nphi = mesh.grid_shape[1]
        K, Mm, W = (ChartLine(scatter(loc)[::nphi], nphi) for loc in locs)
    return OperatorSet(K=K, Mm=Mm, W=W, n=n,
                       q_max=float((n + mesh.quad_asq).max()))


def assemble_spectral(profile, nt, nphi):
    """Fourier pseudo-spectral stiffness, mass and potential mass of the
    torus of a closed profile (``rotational.ProfileCurve``).

    The nodes are an nt x nphi grid of its chart, both sides odd.  A
    surface of revolution has an orthogonal chart with g_11, g_22 and
    q = n + |A|^2 invariant in phi, so the set is one line of constant
    phi (``spectral.TwistedLine``), sampled in one pass at its nt nodes
    (L_theta i / nt, 0) and checked there to be minimal: with Fourier
    derivatives D_t, D_phi and weights w = dt dphi sqrt(g),
    K = D_t^T diag(w / g_11) D_t (x) I + diag(w / g_22) (x) D_phi^T D_phi,
    Mm = diag(w) (x) I and W = diag(w q) (x) I.  They meet
    Delta l_v = -n l_v and Delta f_v = -|A|^2 f_v at the nodes to spectral
    accuracy rather than O(h^2).  The coefficients repeat once per radial
    period, nt / q nodes, so the line holds gcd(nt, q) Bloch phases, an
    odd count.  An even side would leave the Nyquist mode in the kernel
    of D.
    """
    if nt < 8 or nphi < 8:
        raise InvalidParameterError("torus resolutions must be >= 8")
    if nt % 2 == 0 or nphi % 2 == 0:
        raise InvalidParameterError(
            f"spectral assembly needs odd grid sides, got {nt}x{nphi}")
    family = build_surface(profile)
    lt, lp = family.periods
    _, T, _, A, asq, _ = family.sample(
        np.stack([lt * np.arange(nt) / nt, np.zeros(nt)], axis=-1))
    trace = np.abs(A[:, 0, 0] + A[:, 1, 1]).max()
    if trace > _MINIMALITY_TOL:
        raise GenerationFailedError(
            f"minimality self-check failed: max |trace A| = {trace:.3e}")
    g11, g22 = np.einsum("vai,vbi->abv", T, T)[[0, 1], [0, 1]]
    q = 2 + asq    # n + |A|^2 on a surface in S^3
    w = (lt / nt) * (lp / nphi) * np.sqrt(g11 * g22)
    return TwistedLine(line=np.stack([w, w / g11, w / g22, w * q]),
                       lengths=(lt, lp), n=2, q_max=float(q.max()),
                       grid_shape=(nt, nphi),
                       phases=math.gcd(nt, profile.q))


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


def _finite_array(value, what):
    """value as a float array of finite numbers, or MeshFormatError."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:   # ragged nesting
        raise MeshFormatError(f"{what} must be a rectangular array") from exc
    if arr.dtype.kind not in "iuf":
        raise MeshFormatError(f"{what} must hold numbers only")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise MeshFormatError(f"{what} must be finite")
    return arr


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
    vertices = _finite_array(doc["vertices"], "vertices")
    triangles = _finite_array(doc["triangles"], "triangles")
    if vertices.ndim != 2 or vertices.shape[1] != 4:
        raise MeshFormatError("vertices must be an array of R^4 points")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshFormatError("triangles must be an array of index triples")
    if (triangles != np.round(triangles)).any():
        raise MeshFormatError("triangle indices must be integers")
    norms = np.linalg.norm(vertices, axis=1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise MeshFormatError("vertices must lie on the unit sphere")
    vertices = vertices / norms[:, None]
    fields = doc.get("fields", {})
    if not isinstance(fields, dict) or "Asq" not in fields:
        raise MeshFormatError(
            "imported meshes must carry a per-vertex 'Asq' field")
    vertex_asq = _finite_array(fields["Asq"], "'Asq'")
    if vertex_asq.shape != (len(vertices),):
        raise MeshFormatError("'Asq' must hold one value per vertex")
    if vertex_asq.min() < 0:
        raise MeshFormatError("'Asq' values must be nonnegative")
    _check_orientation(triangles, len(vertices))
    triangles = triangles.astype(int)
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
        try:
            doc = json.load(fh)
        except ValueError as exc:   # invalid JSON or text encoding
            raise MeshFormatError(
                f"{path} is not a JSON document: {exc}") from exc
    return mesh_from_json(doc, name=name or str(path))
