"""Metamorphic tests: what a change of coordinates, labels or random
draws must leave unchanged.  Every draw is a seeded numpy draw."""

import numpy as np
import pytest

from mhs.errors import MeshFormatError
from mhs.fem import (assemble, mesh_from_json, mesh_sphere, mesh_to_json,
                     mesh_torus)
from mhs.geometry import clifford
from mhs.paperlab import chain_sweep, trial_forms
from mhs.spectral import first_eigfunction, lowest_eigs


def _exported(name):
    mesh = (mesh_torus(clifford(2, 1), 16, 16) if name == "clifford"
            else mesh_sphere(3))
    return mesh_to_json(mesh)


def _lowest(doc):
    return lowest_eigs(assemble(mesh_from_json(doc)), 12).eigenvalues


@pytest.mark.parametrize("name", ["clifford", "ico3"])
def test_imported_spectrum_invariant_under_rotation_and_relabelling(name):
    doc = _exported(name)
    base = _lowest(doc)
    rng = np.random.default_rng(11)
    # a random element of O(4), a reflection when its determinant is -1
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    vertices = np.asarray(doc["vertices"]) @ Q.T
    # vertex i becomes vertex label[i]
    label = rng.permutation(len(vertices))
    moved = np.empty_like(vertices)
    moved[label] = vertices
    asq = np.empty(len(vertices))
    asq[label] = doc["fields"]["Asq"]
    image = {"vertices": moved.tolist(),
             "triangles": label[np.asarray(doc["triangles"])].tolist(),
             "fields": {"Asq": asq.tolist()}}
    assert np.abs(_lowest(image) - base).max() <= 1e-10


@pytest.mark.parametrize("name", ["clifford", "ico3"])
def test_one_reversed_triangle_is_refused(name):
    doc = _exported(name)
    triangles = np.asarray(doc["triangles"])
    t = np.random.default_rng(5).integers(len(triangles))
    triangles[t] = triangles[t][::-1]
    with pytest.raises(MeshFormatError, match="orientation"):
        mesh_from_json(dict(doc, triangles=triangles.tolist()))


@pytest.mark.parametrize("name", ["sphere", "synthetic"])
def test_chain_identity_holds_for_every_seed(name, request):
    ops = request.getfixturevalue(f"{name}_op")
    forms = trial_forms(request.getfixturevalue(f"{name}_mesh"), ops,
                        first_eigfunction(ops))
    for seed in range(1, 6):
        records, _ = chain_sweep(forms, draws=20, seed=seed)
        for r in records:
            assert abs(r.L1 - r.L2) <= 1e-10 * r.scale
