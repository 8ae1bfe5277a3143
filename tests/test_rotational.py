"""Rotation numbers, profile generation and the rotational surface builder."""

import numpy as np
import pytest
from scipy.optimize import brentq

from mhs import rotational
from mhs.errors import (GenerationFailedError, InvalidParameterError,
                        NoSolutionError, OutOfWindowError)
from mhs.geometry import check_minimality, sample_grid
from mhs.rotational import (build_surface, find_otsuki, rotation_number,
                            rotation_window)


def _ode_rotation_number(energy):
    """Oracle: the advance over one radial period of the geodesic ODE."""
    return rotational._advance(*rotational._integrate_period(energy))


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
            # a fixed 64-node rule is far off near the energy floor, so
            # the node doubling is what carries this case
            assert abs(rotational._clairaut_sum(c, 64) - oracle) > 1e-10


def test_find_otsuki_solves_one_ode_period(monkeypatch):
    calls = []
    integrate = rotational._integrate_period

    def counting(energy):
        calls.append(energy)
        return integrate(energy)

    monkeypatch.setattr(rotational, "_integrate_period", counting)
    rotation_window.cache_clear()
    profile = find_otsuki(2, 3)
    assert len(calls) == 1 and calls[0] == profile.clairaut
    assert abs(profile.ode_advance_residual) <= 1e-12


def test_profile_agrees_with_ode_root(otsuki_profile):
    # the root of the ODE rotation number over the same scan bracket
    energies, rots = rotation_window()
    i = int(np.searchsorted(rots, 2 / 3))
    energy = brentq(lambda c: _ode_rotation_number(c) - 2 / 3,
                    energies[i - 1], energies[i], xtol=1e-14, rtol=8.9e-16)
    assert otsuki_profile.clairaut == pytest.approx(energy, rel=1e-12)
    T, evaluate = rotational._integrate_period(energy)
    samples = evaluate(np.linspace(0.0, T, otsuki_profile.t.size))
    for name, ref in zip(("alpha", "v", "dalpha", "dv"), samples):
        assert np.abs(getattr(otsuki_profile, name) - ref).max() <= 1e-10, \
            name


@pytest.mark.parametrize("energy", [-0.1, 0.0, 0.5, 0.7])
def test_rotation_number_window_errors(energy):
    with pytest.raises(OutOfWindowError):
        rotation_number(energy)


def test_find_otsuki_closure(otsuki_profile):
    assert otsuki_profile.closure_residual <= 1e-8
    assert otsuki_profile.clairaut_drift <= 1e-9
    assert otsuki_profile.p == 2 and otsuki_profile.q == 3
    # turning-point start: radial velocity vanishes at both ends
    assert abs(otsuki_profile.dalpha[0]) < 1e-10
    assert abs(otsuki_profile.dalpha[-1]) < 1e-8


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


def test_build_surface_resolution_guard(otsuki_profile):
    with pytest.raises(InvalidParameterError):
        build_surface(otsuki_profile, 8, 64)


def test_build_surface_self_check(otsuki_profile):
    fam = build_surface(otsuki_profile, 64, 32)
    assert check_minimality(fam, per_dim=(64, 32)) <= 1e-6
    # chart closes over q radial periods
    assert fam.periods[0] == pytest.approx(
        otsuki_profile.q * otsuki_profile.period)


def test_normal_is_unit_orthogonal_and_oriented(otsuki_profile):
    fam = build_surface(otsuki_profile, 64, 16)
    u = sample_grid(fam, (64, 16))
    X, T, nu = fam.position(u), fam.tangents(u), fam.normal(u)
    assert np.abs(np.linalg.norm(nu, axis=-1) - 1.0).max() < 1e-12
    for w in (X, T[:, 0], T[:, 1]):
        assert np.abs(np.einsum("pi,pi->p", nu, w)).max() < 1e-12
    # t is arc length of the orbit metric, so |X_t| |X_phi| = 1
    det = np.linalg.det(np.stack([X, T[:, 0], T[:, 1], nu], axis=1))
    assert np.abs(det + 1.0).max() < 1e-8


def test_build_surface_rejects_corrupt_profile(otsuki_profile):
    import dataclasses
    broken = dataclasses.replace(
        otsuki_profile, dalpha=otsuki_profile.dalpha + 0.05)
    with pytest.raises(GenerationFailedError):
        build_surface(broken, 32, 16)


@pytest.mark.xfail(raises=GenerationFailedError, strict=True,
                   reason="the profile splines are fitted to too few samples "
                          "of one radial period: max |trace A| is 1.25e-4 "
                          "at any nt, and falls below 1e-6 with 8,001 "
                          "samples")
def test_build_surface_passes_self_check_on_otsuki_3_5():
    build_surface(find_otsuki(3, 5), 64, 32)


def test_area_stable_under_refinement(otsuki_profile):
    # the chart area element is identically 1, so |M| = 2 pi q T; the
    # quadrature value must be resolution independent to 1e-4 relative
    fam = build_surface(otsuki_profile, 64, 32)
    L = fam.periods[0]
    coarse = fam.sqrt_det_g(sample_grid(fam, (64, 32))).mean() * L * 2 * np.pi
    fine = fam.sqrt_det_g(sample_grid(fam, (128, 64))).mean() * L * 2 * np.pi
    assert abs(fine - coarse) <= 1e-4 * abs(fine)
    assert abs(fine - 2 * np.pi * L) <= 1e-6 * fine


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
    fam = build_surface(profile, 32, 16)
    asq = fam.asq(sample_grid(fam, (256, 8)))
    assert abs(asq.max() - 2.0) < 0.05 * 2.0
    assert abs(asq.min() - 2.0) < 0.05 * 2.0
