"""Analytic family invariants and the coordinate test functions."""

import numpy as np
import pytest

from mhs.errors import InvalidParameterError
from mhs.geometry import check_minimality, clifford, equator, sample_grid


def gram_schmidt(T):
    """Rows: Gram-Schmidt of the tangent rows in order (QR, R_ii > 0),
    the frame ``shape_frame`` is expressed in."""
    Q, R = np.linalg.qr(T.T)
    return (Q * np.sign(np.diag(R))).T


def frame_invariants(family, u):
    frame = np.vstack([family.position(u), family.normal(u),
                       gram_schmidt(family.tangents(u))])
    gram = frame @ frame.T
    assert np.abs(gram - np.eye(len(frame))).max() < 1e-10
    A = family.shape_frame(u)
    assert abs(np.trace(A)) < 1e-8
    assert abs((A ** 2).sum() - family.asq(u)) < 1e-8


def chart_area(family, resolution=64):
    """Chart integral of the area element: Gauss-Legendre in bounded
    directions, uniform sums in periodic ones."""
    dom = family.param_domain
    nodes, weights = [], []
    for lo, hi, periodic in zip(dom.lows, dom.highs, dom.periodic):
        if periodic:
            x = np.arange(resolution) / resolution
            w = np.full(resolution, 1.0 / resolution)
        else:
            x, w = np.polynomial.legendre.leggauss(resolution)
            x, w = 0.5 * (x + 1.0), 0.5 * w
        nodes.append(lo + (hi - lo) * x)
        weights.append((hi - lo) * w)
    u = np.stack([g.ravel() for g in np.meshgrid(*nodes, indexing="ij")],
                 axis=-1)
    w = np.prod([g.ravel() for g in np.meshgrid(*weights, indexing="ij")],
                axis=0)
    return float(w @ family.sqrt_det_g(u))


def gradient_residuals(family, v, u, h):
    """(|grad l_v - v^T|, |grad f_v + A(v^T)|) at u, with the chart
    gradients from centred differences of step h and v^T the tangential
    part v - f_v nu - l_v x."""
    x, nu, T = family.position(u), family.normal(u), family.tangents(u)
    steps = h * np.eye(len(u))

    def gradient(field):
        parts = (field(u + steps) - field(u - steps)) / (2.0 * h)
        return np.linalg.solve(T @ T.T, parts) @ T

    vT = v - (nu @ v) * nu - (x @ v) * x
    E = gram_schmidt(T)
    AvT = E.T @ family.shape_frame(u) @ E @ vT
    grad_l = gradient(lambda p: family.position(p) @ v)
    grad_f = gradient(lambda p: family.normal(p) @ v)
    return np.linalg.norm(grad_l - vT), np.linalg.norm(grad_f + AvT)


@pytest.mark.parametrize("family", [equator(2), equator(3),
                                    clifford(2, 1), clifford(3, 1),
                                    clifford(4, 2)])
def test_frame_invariants_sampled(family):
    rng = np.random.default_rng(7)
    dom = family.param_domain
    for _ in range(10):
        u = np.array([rng.uniform(lo + 0.2, hi - 0.2)
                      for lo, hi in zip(dom.lows, dom.highs)])
        frame_invariants(family, u)


def test_equator_requires_dimension():
    with pytest.raises(InvalidParameterError):
        equator(1)


def test_clifford_parameter_range():
    with pytest.raises(InvalidParameterError):
        clifford(2, 2)
    with pytest.raises(InvalidParameterError):
        clifford(2, 0)


def test_equator_is_totally_geodesic():
    fam = equator(2)
    u = sample_grid(fam, 8)
    assert np.abs(fam.asq(u)).max() == 0.0
    assert check_minimality(equator(3)) == 0.0


def test_equator_area():
    assert abs(chart_area(equator(2)) - 4 * np.pi) < 1e-6


def test_clifford_radii_and_asq():
    fam = clifford(2, 1)
    u = sample_grid(fam, 8)
    x = fam.position(u)
    # each factor circle has radius 1/sqrt(2)
    assert np.abs(np.linalg.norm(x[:, :2], axis=1) - 2 ** -0.5).max() < 1e-12
    assert np.abs(np.linalg.norm(x[:, 2:], axis=1) - 2 ** -0.5).max() < 1e-12
    assert np.abs(fam.asq(u) - 2.0).max() < 1e-12
    u4 = sample_grid(clifford(4, 2), 4)
    assert np.abs(clifford(4, 2).asq(u4) - 4.0).max() < 1e-12


def test_clifford_minimality_fine_grid():
    assert check_minimality(clifford(3, 1), per_dim=8) < 1e-10


def test_clifford_area():
    assert abs(chart_area(clifford(2, 1)) - 2 * np.pi ** 2) < 1e-8


def test_clifford_principal_curvatures():
    A = clifford(2, 1).shape_frame(np.array([0.3, 1.1]))
    vals = np.sort(np.linalg.eigvalsh(A))
    assert np.abs(vals - [-1.0, 1.0]).max() < 1e-10


def test_equator_axis_fields():
    fam = equator(2)
    u = sample_grid(fam, 6)
    axis = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.abs(fam.position(u) @ axis).max() == 0.0
    assert np.abs(np.abs(fam.normal(u) @ axis) - 1.0).max() == 0.0


@pytest.mark.parametrize("family", [equator(2), clifford(2, 1)])
def test_coordinate_fields_partition(family):
    u = sample_grid(family, 6)
    basis = np.eye(family.ambient_dim)
    fsq = sum((family.normal(u) @ v) ** 2 for v in basis)
    lsq = sum((family.position(u) @ v) ** 2 for v in basis)
    assert np.abs(fsq - 1.0).max() < 1e-12
    assert np.abs(lsq - 1.0).max() < 1e-12


def test_gradient_identities_clifford():
    fam = clifford(2, 1)
    u = np.array([0.8, 2.3])
    v = np.array([0.3, -0.5, 0.7, 0.2])
    r_l, r_f = gradient_residuals(fam, v, u, h=1e-3)
    assert r_l < 1e-5 and r_f < 1e-5
    # centered differences: halving the step cuts the residual ~4x
    r_l2, r_f2 = gradient_residuals(fam, v, u, h=5e-4)
    assert r_l2 < 0.5 * r_l + 1e-12
    assert r_f2 < 0.5 * r_f + 1e-12


def test_gradient_check_equator_constant_normal():
    fam = equator(2)
    u = np.array([1.2, 0.9])
    v = np.array([0.1, 0.4, -0.2, 0.8])
    _, r_f = gradient_residuals(fam, v, u, h=1e-4)
    assert r_f < 1e-9  # f_v constant, A = 0


def test_rotational_surface_minimality(otsuki_profile):
    from mhs.rotational import build_surface
    fam = build_surface(otsuki_profile, 32, 16)
    assert check_minimality(fam, per_dim=(32, 16)) <= 1e-6
