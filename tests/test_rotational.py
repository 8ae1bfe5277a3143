"""Rotation numbers, profile generation and the rotational surface builder."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from mhs import rotational
from mhs.errors import (ConvergenceError, GenerationFailedError,
                        IntegrationFailureError, InvalidParameterError,
                        NoSolutionError, OutOfWindowError)
from mhs.fem import mesh_torus
from mhs.geometry import check_minimality, sample_grid
from mhs.rotational import (build_surface, find_otsuki, rotation_number,
                            rotation_window)

_LEAD_TIME = 1e-3              # event-free lead-in past the turning point
_ODE_TOL = 1e-12
_T_MAX = 100.0


def _rhs(t, y):
    """Geodesic equations of the orbit metric sin^2 a (da^2 + cos^2 a dv^2),
    y = (a, v, a', v') in its arc length t."""
    a, _, da, dv = y
    s2, s4 = np.sin(2.0 * a), np.sin(4.0 * a)
    sa2, ca2 = np.sin(a) ** 2, np.cos(a) ** 2
    dda = -(s2 / (2.0 * sa2)) * da * da + (s4 / (4.0 * sa2)) * dv * dv
    ddv = -(s4 / (2.0 * sa2 * ca2)) * da * dv
    return [da, dv, dda, ddv]


def _integrate_period(c):
    """Oracle: one radial period of the geodesic ODE from the inner
    turning point, by DOP853.  Returns (T, dense evaluator over [0, T])."""
    a_min = 0.5 * np.arcsin(2.0 * c)
    y0 = [a_min, 0.0, 0.0, 1.0 / c]
    lead = solve_ivp(_rhs, (0.0, _LEAD_TIME), y0, method="DOP853",
                     rtol=_ODE_TOL, atol=_ODE_TOL, dense_output=True)
    if not lead.success:
        raise IntegrationFailureError(lead.message)

    def turning(t, y):
        return y[2]

    turning.direction = 1.0
    turning.terminal = True
    sol = solve_ivp(_rhs, (_LEAD_TIME, _T_MAX), lead.y[:, -1],
                    method="DOP853", rtol=_ODE_TOL, atol=_ODE_TOL,
                    events=turning, dense_output=True)
    if not sol.success or len(sol.t_events[0]) == 0:
        raise IntegrationFailureError(f"no radial period for energy {c}")
    T = float(sol.t_events[0][0])

    def evaluate(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((4, ts.size))
        early = ts <= _LEAD_TIME
        if early.any():
            out[:, early] = lead.sol(ts[early])
        if (~early).any():
            out[:, ~early] = sol.sol(ts[~early])
        return out

    return T, evaluate


def _ode_rotation_number(energy):
    """Oracle: the advance over one radial period of the geodesic ODE."""
    T, evaluate = _integrate_period(energy)
    return float(evaluate(T)[1, 0] / (2.0 * np.pi))


def test_rotation_number_limits():
    # approaches sqrt(2)/2 from below near the circular solution
    assert abs(rotation_number(0.4999) - np.sqrt(2) / 2) < 1e-3
    # approaches 1/2 near the degenerate end of the window
    assert abs(rotation_number(0.02) - 0.5) < 0.05


def test_rotation_number_monotone_scan():
    energies, rots = rotation_window()
    assert np.all(np.diff(rots) > 0)
    assert rots[0] > 0.5 and rots[-1] < np.sqrt(2) / 2


def test_quadrature_matches_ode_oracle():
    energies = np.concatenate([rotation_window()[0], [1e-4, 1e-3, 5e-3]])
    for c in energies:
        oracle = _ode_rotation_number(c)
        bound = 1e-12 if 0.02 <= c <= 0.45 else 1e-10
        assert abs(rotation_number(c) - oracle) <= bound, c
        if c == 1e-4:
            # a fixed 64-node midpoint mean is far off near the energy
            # floor, so the node doubling is what carries this case
            theta = (np.arange(64) + 0.5) * (np.pi / 64)
            fixed = rotational._dv_dtheta(c, theta).mean()
            assert abs(fixed - oracle) > 1e-10


def test_otsuki_path_loads_no_ode_or_spline(tmp_path):
    # the profile is in closed form, its energy comes from the in-tree
    # Brent root and its series from the in-tree DCT: importing the CLI,
    # generating, building and checking an Otsuki torus, and an equator
    # spectrum load no root-finder, no ODE solver, no spline, no FFT
    # package and no special functions
    src = str(Path(__file__).parents[1] / "src")
    report = str(tmp_path / "report.json")
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.optimize', 'scipy.integrate',"
        " 'scipy.interpolate', 'scipy.fft', 'scipy.special')"
        " if m in sys.modules]\n"
        "from mhs import cli, rotational\n"
        "print(loaded())\n"
        "rotational.build_surface(rotational.find_otsuki(3, 5))\n"
        "assert cli.main(['paper-check', '--family', 'otsuki', '--res',"
        f" '16', '--output', {report!r}]) == 0\n"
        "print(loaded())\n"
        "assert cli.main(['spectrum', '--family', 'equator', '--res', '3',"
        f" '--output', {report!r}]) == 0\n"
        "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.split() == ["[]"] * 3


def _counted(f):
    """f with a count of its calls in `.calls`."""
    def counted(x):
        counted.calls += 1
        return f(x)

    counted.calls = 0
    return counted


def _otsuki_bracket(p, q):
    """find_otsuki's root-find: f and the bracket from the window scan."""
    energies, rots = rotation_window()
    i = int(np.searchsorted(rots, p / q))
    return (lambda c: rotation_number(c) - p / q), energies[i - 1], energies[i]


_GENERIC_ROOTS = {
    "wallis_cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "cos_fixed_point": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "steep_atan": (lambda x: math.atan(50.0 * (x - 0.123)), -3.0, 7.0),
    # takes a short step that the 3 |sbis| - delta bound, not |spre|,
    # lets through
    "exp_ten": (lambda x: math.exp(x) - 10.0, 1.0, 3.0),
    "root_at_a": (lambda x: x * x - 4.0, 2.0, 5.0),
    "root_at_b": (lambda x: x - 1.5, 0.0, 1.5),
}


@pytest.mark.parametrize("case", [f"otsuki{p}{q}" for p, q in
                                  [(2, 3), (3, 5), (5, 9), (7, 10)]]
                         + sorted(_GENERIC_ROOTS))
@pytest.mark.parametrize("xtol, rtol", [(1e-14, 8.9e-16), (1e-6, 1e-10)])
def test_brentq_matches_scipy_bit_for_bit(case, xtol, rtol):
    # the port of brentq.c returns scipy's root bit for bit after the
    # same number of calls of f
    otsuki = case.startswith("otsuki")
    if otsuki:
        p, q = int(case[6]), int(case[7:])
        f, a, b = _otsuki_bracket(p, q)
    else:
        f, a, b = _GENERIC_ROOTS[case]
    ours, theirs = _counted(f), _counted(f)
    root = rotational._brentq(ours, a, b, xtol=xtol, rtol=rtol)
    ref = brentq(theirs, a, b, xtol=xtol, rtol=rtol)
    assert root.hex() == ref.hex()
    assert ours.calls == theirs.calls
    if otsuki and (xtol, rtol) == (1e-14, 8.9e-16):
        # find_otsuki's own tolerances: its energy is scipy's root
        assert find_otsuki(p, q).clairaut.hex() == ref.hex()


_DCT_LENGTHS = [1 << e for e in range(6, 17)]


@pytest.mark.parametrize("n", _DCT_LENGTHS)
def test_dct2_matches_scipy_bit_for_bit(n):
    # the port of pocketfft's DCT-II returns scipy's bytes on random
    # vectors and on dv/dtheta at the midpoints, at both ends of the scan
    rng = np.random.default_rng(n)
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    energies = rotation_window()[0]
    for x in (rng.standard_normal(n), rng.uniform(-1e3, 1e3, n),
              rotational._dv_dtheta(energies[0], theta),
              rotational._dv_dtheta(energies[-1], theta)):
        assert rotational._dct2(x).tobytes() == dct(x, type=2).tobytes()


@pytest.mark.parametrize("n", [60, 96, 32, 1 << 17])
def test_dct2_rejects_unchecked_lengths(n):
    with pytest.raises(InvalidParameterError, match="power of two"):
        rotational._dct2(np.ones(n))


def _scipy_series(c):
    """Reference: the cosine series of dv/dtheta by scipy.fft.dct, with
    the node doubling of the library."""
    nodes = 64
    while True:
        theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
        b = dct(rotational._dv_dtheta(c, theta), type=2) / nodes
        b[0] *= 0.5
        if np.abs(b[nodes // 2:]).max() <= 1e-14 * b[0]:
            return b
        nodes *= 2


@pytest.mark.parametrize("p, q", [(2, 3), (5, 9)])
def test_find_otsuki_matches_scipy_dct_path(p, q):
    # the energy and series of a profile are those of the scipy.fft path,
    # bit for bit: same scan, same Brent root, same coefficients
    energies = rotation_window()[0]
    rots = np.array([_scipy_series(c)[0] for c in energies])
    i = int(np.searchsorted(rots, p / q))
    energy = brentq(lambda c: _scipy_series(c)[0] - p / q,
                    energies[i - 1], energies[i], xtol=1e-14, rtol=8.9e-16)
    profile = find_otsuki(p, q)
    assert profile.clairaut.hex() == energy.hex()
    assert profile.series.tobytes() == _scipy_series(energy).tobytes()


def test_brentq_raises_library_errors():
    # where scipy's brentq raises ValueError or RuntimeError, which the
    # CLI would print as tracebacks
    def root(f, a, b, maxiter=100):
        return rotational._brentq(f, a, b, 1e-14, 8.9e-16, maxiter)

    with pytest.raises(NoSolutionError, match="same sign"):
        root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    # NaN at an end of the bracket and at the first interior step (0.3)
    hole = _counted(lambda x: x - 0.3 if abs(x - 0.5) > 0.4 else math.nan)
    with pytest.raises(NoSolutionError, match="NaN"):
        root(hole, 0.0, 1.0)
    assert hole.calls == 3
    with pytest.raises(NoSolutionError, match="NaN"):
        root(lambda x: math.nan if x > 0.5 else x, -1.0, 1.0)
    with pytest.raises(ConvergenceError, match="3 iterations"):
        root(lambda x: math.cos(x) - x, 0.0, 1.0, maxiter=3)
    with pytest.raises(RuntimeError):
        brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-14,
               rtol=8.9e-16, maxiter=3)


def test_profile_agrees_with_ode_root(otsuki_profile):
    # the root of the ODE rotation number over the same scan bracket
    energies, rots = rotation_window()
    i = int(np.searchsorted(rots, 2 / 3))
    energy = brentq(lambda c: _ode_rotation_number(c) - 2 / 3,
                    energies[i - 1], energies[i], xtol=1e-14, rtol=8.9e-16)
    assert otsuki_profile.clairaut == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (5, 9)])
def test_chart_follows_ode_oracle(p, q):
    # along the first half period, theta in [0, pi], the chart point
    # X(theta, 0) against the ODE at the orbit arc length
    # t(theta) = int_0^theta sqrt(g), which Gauss-Legendre sums exactly
    profile = find_otsuki(p, q)
    family = build_surface(profile)
    T, evaluate = _integrate_period(profile.clairaut)
    edges = np.linspace(0.0, np.pi, 41)
    x, w = np.polynomial.legendre.leggauss(24)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * x
    steps = family.sqrt_det_g(np.stack([nodes, 0.0 * nodes], axis=-1))
    t = np.concatenate([[0.0], np.cumsum(half * (steps @ w))])
    assert t[-1] == pytest.approx(0.5 * T, rel=1e-12)
    a, v = evaluate(t)[:2]
    ode = np.stack([np.cos(a) * np.cos(v), np.cos(a) * np.sin(v),
                    np.sin(a), 0.0 * a], axis=-1)
    chart = family.position(np.stack([edges, 0.0 * edges], axis=-1))
    assert np.abs(chart - ode).max() <= 1e-10


@pytest.mark.parametrize("energy", [-0.1, 0.0, 0.5, 0.7])
def test_rotation_number_window_errors(energy):
    with pytest.raises(OutOfWindowError):
        rotation_number(energy)


def test_find_otsuki_closure(otsuki_profile):
    assert otsuki_profile.closure_residual <= 1e-12
    assert otsuki_profile.p == 2 and otsuki_profile.q == 3
    # the cosine series of dv/dtheta has converged to rounding
    series = otsuki_profile.series
    assert np.abs(series[series.size // 2:]).max() <= 1e-14 * series[0]
    # v advances by exactly 2 pi p over the q radial periods
    v = otsuki_profile.chart(np.array([0.0, 2.0 * np.pi * 3]))[1]
    assert v[0] == 0.0 and v[1] == pytest.approx(4.0 * np.pi, abs=1e-12)


def test_find_otsuki_rejects_non_coprime():
    with pytest.raises(InvalidParameterError):
        find_otsuki(2, 4)
    with pytest.raises(InvalidParameterError):
        find_otsuki(0, 3)


def test_find_otsuki_outside_window():
    with pytest.raises(NoSolutionError):
        find_otsuki(1, 1)
    with pytest.raises(NoSolutionError):
        find_otsuki(1, 3)


def test_build_surface_self_check(otsuki_profile):
    fam = build_surface(otsuki_profile)
    assert check_minimality(fam, per_dim=(64, 32)) <= 1e-10
    # the chart closes over q radial periods of theta
    assert fam.periods == (2.0 * np.pi * otsuki_profile.q, 2.0 * np.pi)


def test_normal_is_unit_orthogonal_and_oriented(otsuki_profile):
    fam = build_surface(otsuki_profile)
    u = sample_grid(fam, (64, 16))
    X, T, nu = fam.position(u), fam.tangents(u), fam.normal(u)
    assert np.abs(np.linalg.norm(nu, axis=-1) - 1.0).max() < 1e-12
    for w in (X, T[:, 0], T[:, 1]):
        assert np.abs(np.einsum("pi,pi->p", nu, w)).max() < 1e-12
    # orthogonal chart, so det[X, X_theta, X_phi, nu] = -|X_theta| |X_phi|
    det = np.linalg.det(np.stack([X, T[:, 0], T[:, 1], nu], axis=1))
    assert np.abs(det + fam.sqrt_det_g(u)).max() < 1e-12


def test_mesh_torus_rejects_corrupt_profile(otsuki_profile):
    # a profile whose energy no longer matches its series is not minimal;
    # meshing its family runs the self-check on the vertex lattice
    import dataclasses
    broken = dataclasses.replace(
        otsuki_profile, clairaut=otsuki_profile.clairaut * (1.0 + 1e-3))
    family = build_surface(broken)
    with pytest.raises(GenerationFailedError, match="trace A"):
        mesh_torus(family, 32, 16)


def test_chart_is_sampled_only_by_the_mesh(otsuki_profile, monkeypatch):
    # build_surface evaluates nothing; mesh_torus samples the chart once
    # at the vertices (self-check included) and once at the quadrature,
    # each time only on the distinct theta of the points
    calls = []
    chart = rotational.ProfileCurve.chart

    def counted(self, theta):
        calls.append(np.shape(theta))
        return chart(self, theta)

    monkeypatch.setattr(rotational.ProfileCurve, "chart", counted)
    family = build_surface(otsuki_profile)
    assert calls == []
    mesh_torus(family, 32, 16)
    assert calls == [(32,), (65,)]


@pytest.mark.parametrize("p, q", [(3, 5), (5, 9)])
def test_build_surface_passes_self_check_beyond_2_3(p, q):
    fam = build_surface(find_otsuki(p, q))
    assert check_minimality(fam, per_dim=(64, 32)) <= 1e-10


def test_area_stable_under_refinement(otsuki_profile):
    # the area element sqrt(g) is smooth and periodic, so its uniform
    # sums are resolution independent to rounding
    fam = build_surface(otsuki_profile)
    area = np.prod(fam.periods)
    coarse = fam.sqrt_det_g(sample_grid(fam, (64, 32))).mean() * area
    fine = fam.sqrt_det_g(sample_grid(fam, (128, 64))).mean() * area
    assert abs(fine - coarse) <= 1e-12 * abs(fine)


def test_asq_integral_stable_under_mesh_refinement(otsuki_mesh_coarse,
                                                   otsuki_mesh):
    # chart quadrature with the curved measure: spectrally accurate, so
    # refinement must leave both |M| and the |A|^2 integral unchanged
    coarse_area = otsuki_mesh_coarse.quad_measure.sum()
    fine_area = otsuki_mesh.quad_measure.sum()
    assert abs(fine_area - coarse_area) <= 1e-4 * fine_area
    coarse = (otsuki_mesh_coarse.quad_measure
              * otsuki_mesh_coarse.quad_asq).sum()
    fine = (otsuki_mesh.quad_measure * otsuki_mesh.quad_asq).sum()
    assert abs(fine - coarse) <= 1e-4 * abs(fine)


def test_near_circular_profile_approaches_constant_curvature():
    # close to the circular solution |A|^2 should flatten toward n = 2
    profile = find_otsuki(408, 577)  # rotation number 0.7071057
    fam = build_surface(profile)
    asq = fam.asq(sample_grid(fam, (256, 8)))
    assert abs(asq.max() - 2.0) < 0.05 * 2.0
    assert abs(asq.min() - 2.0) < 0.05 * 2.0
