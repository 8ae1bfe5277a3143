"""Shared fixtures: meshes and operator sets reused across the suite.

Everything heavy is session-scoped; all solvers are deterministic, so
sharing is safe.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sps

from mhs import fem, rotational, spectral
from mhs.geometry import clifford, sample_grid


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


def kron_set(family, nt, nphi):
    """The spectral set of the nt x nphi grid of a rotational family with
    K, Mm and W formed whole, as 2-D Kronecker products of the 1-D
    operators of its chart line phi = 0: K = Kt (x) I
    + diag(w / g_22) (x) Kphi, Mm = diag(w) (x) I and W = diag(w q) (x) I,
    with the Fourier derivatives of the whole line (``_fourier_diff``).
    A reference for ``fem.assemble_spectral``, which forms no 2-D
    operator and splits the line over Bloch phases; here the whole
    lattice is sampled and the line read from its column phi = 0.  Its
    phi-mode split is that of its chart lines (``chart_set``)."""
    lt, lp = family.periods
    _, T, _, _, asq, _ = family.sample(sample_grid(family, (nt, nphi)))
    g11, g22 = np.einsum("vai,vbi->abv", T, T)[[0, 1], [0, 1]]
    g11, g22, q = np.stack([g11, g22, 2 + asq]).reshape(3, nt, nphi)[..., 0]
    w = (lt / nt) * (lp / nphi) * np.sqrt(g11 * g22)
    Dt, Dp = _fourier_diff(nt, lt), _fourier_diff(nphi, lp)
    Kt, Kp = ((A + A.T) * 0.5 for A in (Dt.T @ ((w / g11)[:, None] * Dt),
                                        Dp.T @ Dp))
    eye = sps.identity(nphi)
    K = (sps.kron(Kt, eye) + sps.kron(sps.diags(w / g22), Kp)).tocsr()
    Mm, W = (sps.kron(sps.diags(c), eye, format="csr") for c in (w, w * q))
    return fem.OperatorSet(K=K, Mm=Mm, W=W, n=2, q_max=float(q.max()))


def chart_set(ops, nphi):
    """ops, whose sparse K, Mm and W are block-circulant in phi on a grid
    of nphi columns, stated as the chart lines of their block rows 0, so
    that it splits over phi-modes as an assembled P1 chart set does."""
    K, Mm, W = (spectral.ChartLine(A.tocsr()[::nphi], nphi)
                for A in (ops.K, ops.Mm, ops.W))
    return dataclasses.replace(ops, K=K, Mm=Mm, W=W)


def whole_scatter(mesh):
    """The P1 set of a chart mesh scattered whole into sparse matrices:
    the unreduced pencil, which takes the nodal path."""
    return fem.assemble(dataclasses.replace(mesh, grid_shape=None))


@pytest.fixture(scope="session")
def clifford_family():
    return clifford(2, 1)


@pytest.fixture(scope="session")
def clifford_meshes(clifford_family):
    """Dyadic refinements keyed by resolution."""
    return {res: fem.mesh_torus(clifford_family, res, res)
            for res in (16, 32, 64)}


@pytest.fixture(scope="session")
def clifford_ops(clifford_meshes):
    return {res: fem.assemble(mesh) for res, mesh in clifford_meshes.items()}


@pytest.fixture(scope="session")
def clifford_mesh_44(clifford_family):
    """The first rung of the Clifford benchmark ladder."""
    return fem.mesh_torus(clifford_family, 44, 44)


@pytest.fixture(scope="session")
def clifford_op_44(clifford_mesh_44):
    return fem.assemble(clifford_mesh_44)


@pytest.fixture(scope="session")
def clifford_mesh(clifford_meshes):
    return clifford_meshes[64]


@pytest.fixture(scope="session")
def clifford_op(clifford_ops):
    return clifford_ops[64]


@pytest.fixture(scope="session")
def clifford_profile():
    """The Clifford torus as the constant profile: at the circular energy
    h = 0, so alpha = pi/4 and v = theta, the chart of
    ``geometry.clifford`` up to the sign of the normal."""
    return rotational.ProfileCurve(clairaut=rotational.CIRCULAR_ENERGY,
                                   p=1, q=1, series=np.ones(1))


@pytest.fixture(scope="session")
def clifford_op_spectral(clifford_profile):
    """The spectral set of the Clifford profile on a 33 x 33 grid: one
    Bloch phase."""
    return fem.assemble_spectral(clifford_profile, 33, 33)


@pytest.fixture(scope="session")
def clifford_op_kron(clifford_profile):
    """clifford_op_spectral with its K, Mm and W formed (``kron_set``)."""
    return kron_set(rotational.build_surface(clifford_profile), 33, 33)


@pytest.fixture(scope="session")
def sphere_mesh():
    return fem.mesh_sphere(4)


@pytest.fixture(scope="session")
def sphere_op(sphere_mesh):
    return fem.assemble(sphere_mesh)


@pytest.fixture(scope="session")
def otsuki_profile():
    return rotational.find_otsuki(2, 3)


@pytest.fixture(scope="session")
def otsuki_mesh_coarse(otsuki_profile):
    family = rotational.build_surface(otsuki_profile)
    return fem.mesh_torus(family, 128, 32)


@pytest.fixture(scope="session")
def otsuki_mesh(otsuki_profile):
    family = rotational.build_surface(otsuki_profile)
    return fem.mesh_torus(family, 256, 64)


@pytest.fixture(scope="session")
def otsuki_op_spectral(otsuki_profile):
    """The spectral set of Otsuki (2, 3) on an odd grid, long in t, where
    the profile varies, and short in the rotation angle phi."""
    return fem.assemble_spectral(otsuki_profile, 255, 17)


@pytest.fixture(scope="session")
def otsuki_op_kron(otsuki_profile):
    """otsuki_op_spectral with its K, Mm and W formed (``kron_set``)."""
    return kron_set(rotational.build_surface(otsuki_profile), 255, 17)


@pytest.fixture(scope="session")
def otsuki_op_coarse(otsuki_mesh_coarse):
    return fem.assemble(otsuki_mesh_coarse)


@pytest.fixture(scope="session")
def otsuki_op(otsuki_mesh):
    return fem.assemble(otsuki_mesh)


@pytest.fixture(scope="session")
def synthetic_mesh(sphere_mesh):
    """Icosphere mesh with an artificial constant |A|^2 = 0.5.

    Small enough pointwise and on average to satisfy both hypotheses at
    an even split, yet not totally geodesic; the resulting operator is
    -Delta - 2.5 on the round sphere.
    """
    val = 0.5
    return dataclasses.replace(
        sphere_mesh,
        name="synthetic-sphere-asq0.5",
        vertex_asq=np.full(sphere_mesh.num_vertices, val),
        quad_asq=np.full_like(sphere_mesh.quad_asq, val))


@pytest.fixture(scope="session")
def synthetic_op(synthetic_mesh):
    return fem.assemble(synthetic_mesh)
