"""Analytic family invariants and the coordinate test functions."""

import numpy as np
import pytest

from mhs.errors import InvalidParameterError
from mhs.geometry import FIELDS, check_minimality, clifford, sample_grid
from mhs.rotational import build_surface, find_otsuki

# the closed-form Otsuki (2, 3) fields; unlike the Clifford torus, A varies
OTSUKI = build_surface(find_otsuki(2, 3))
# the minimality bound mesh_torus enforces on the closed-form fields
TRACE_TOL = {"clifford(2,1)": 1e-8, "otsuki(2,3)": 1e-10,
             "otsuki(7,10)": 1e-10}


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
    assert abs(np.trace(A)) < TRACE_TOL[family.name]
    assert abs((A ** 2).sum() - family.asq(u)) < 1e-8


def chart_area(family, resolution=64):
    """Chart integral of the area element by uniform sums."""
    u = sample_grid(family, resolution)
    return float(family.sqrt_det_g(u).mean() * np.prod(family.periods))


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


@pytest.mark.parametrize("family", [
    OTSUKI, build_surface(find_otsuki(7, 10)), clifford(2, 1)])
def test_frame_invariants_sampled(family):
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.uniform(0.0, family.periods)
        frame_invariants(family, u)


def test_clifford_parameter_range():
    for n, k in ((2, 2), (2, 0), (3, 1), (4, 2), (2.0, 1)):
        with pytest.raises(InvalidParameterError):
            clifford(n, k)


def test_clifford_radii_and_asq():
    fam = clifford(2, 1)
    u = sample_grid(fam, 8)
    x = fam.position(u)
    # each factor circle has radius 1/sqrt(2)
    assert np.abs(np.linalg.norm(x[:, :2], axis=1) - 2 ** -0.5).max() < 1e-12
    assert np.abs(np.linalg.norm(x[:, 2:], axis=1) - 2 ** -0.5).max() < 1e-12
    assert np.abs(fam.asq(u) - 2.0).max() < 1e-12


def test_clifford_minimality_fine_grid():
    assert check_minimality(clifford(2, 1), per_dim=256) < 1e-10


def test_clifford_area():
    assert abs(chart_area(clifford(2, 1)) - 2 * np.pi ** 2) < 1e-8


def test_clifford_principal_curvatures():
    A = clifford(2, 1).shape_frame(np.array([0.3, 1.1]))
    vals = np.sort(np.linalg.eigvalsh(A))
    assert np.abs(vals - [-1.0, 1.0]).max() < 1e-10


@pytest.mark.parametrize("family", [clifford(2, 1), OTSUKI])
def test_views_are_sample_components(family):
    # each named field is one component of the single pass, bit for bit
    u = sample_grid(family, (16, 8))
    fields = family.sample(u)
    assert len(fields) == len(FIELDS)
    for name, want in zip(FIELDS, fields):
        got = getattr(family, name)(u)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("family", [clifford(2, 1), OTSUKI])
def test_coordinate_fields_partition(family):
    u = sample_grid(family, 6)
    basis = np.eye(4)
    fsq = sum((family.normal(u) @ v) ** 2 for v in basis)
    lsq = sum((family.position(u) @ v) ** 2 for v in basis)
    assert np.abs(fsq - 1.0).max() < 1e-12
    assert np.abs(lsq - 1.0).max() < 1e-12


def assert_gradient_identities(fam, u, bound):
    v = np.array([0.3, -0.5, 0.7, 0.2])
    r_l, r_f = gradient_residuals(fam, v, u, h=1e-3)
    assert r_l < bound and r_f < bound
    # centered differences: halving the step cuts the residual ~4x
    r_l2, r_f2 = gradient_residuals(fam, v, u, h=5e-4)
    assert r_l2 < 0.5 * r_l + 1e-12
    assert r_f2 < 0.5 * r_f + 1e-12


def test_gradient_identities_clifford():
    assert_gradient_identities(clifford(2, 1), np.array([0.8, 2.3]), 1e-5)


def test_gradient_identities_otsuki():
    # the closed-form Otsuki A against differences of the normal, over
    # one radial period: |A| runs from 0.35 to 2.5 along these points,
    # and the third derivatives, hence the residuals, grow with it
    radial = OTSUKI.periods[0] / 3
    for t in np.linspace(0.05, radial + 0.05, 6, endpoint=False):
        assert_gradient_identities(OTSUKI, np.array([t, 2.3]), 5e-5)


def test_rotational_surface_minimality(otsuki_profile):
    from mhs.rotational import build_surface
    fam = build_surface(otsuki_profile)
    assert check_minimality(fam, per_dim=(32, 16)) <= 1e-10
