"""Shared fixtures: meshes and operator sets reused across the suite.

Everything heavy is session-scoped; all solvers are deterministic, so
sharing is safe.
"""

import dataclasses

import numpy as np
import pytest

from mhs import fem, rotational
from mhs.geometry import clifford


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
def clifford_mesh(clifford_meshes):
    return clifford_meshes[64]


@pytest.fixture(scope="session")
def clifford_op(clifford_ops):
    return clifford_ops[64]


@pytest.fixture(scope="session")
def clifford_mesh_odd(clifford_family):
    """Odd-sided grid for the Fourier pseudo-spectral operator set."""
    return fem.mesh_torus(clifford_family, 33, 33)


@pytest.fixture(scope="session")
def clifford_op_spectral(clifford_mesh_odd):
    return fem.assemble_spectral(clifford_mesh_odd)


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
    family = rotational.build_surface(otsuki_profile, 128, 32)
    return fem.mesh_torus(family, 128, 32)


@pytest.fixture(scope="session")
def otsuki_mesh(otsuki_profile):
    family = rotational.build_surface(otsuki_profile, 256, 64)
    return fem.mesh_torus(family, 256, 64)


@pytest.fixture(scope="session")
def otsuki_mesh_odd(otsuki_profile):
    """Odd-sided grid for the spectral set; long in t, where the profile
    varies, and short in the rotation angle phi."""
    family = rotational.build_surface(otsuki_profile, 255, 17)
    return fem.mesh_torus(family, 255, 17)


@pytest.fixture(scope="session")
def otsuki_op_spectral(otsuki_mesh_odd):
    return fem.assemble_spectral(otsuki_mesh_odd)


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
