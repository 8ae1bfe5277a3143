"""Rotationally invariant minimal tori in S^3 from Clairaut's integral.

S^1-invariant minimal surfaces in S^3 reduce to geodesics of the orbit
metric sin^2(a) (da^2 + cos^2(a) dv^2) on the quotient strip.  The
conserved Clairaut constant c = sin^2(a) cos^2(a) v' parametrizes the
radial oscillations and plays the role of the energy; c -> 1/2 is the
circular (Clifford) solution.  A profile closes up into a torus when the
angular advance over one radial period is 2*pi*p/q.

The profile is parametrized by the angle theta of the substitution
a = pi/4 - h cos(theta), h = arccos(2c)/2, which runs once around the
radial period as theta runs over [0, 2*pi).  In it the profile is in
closed form: a(theta) exactly, and dv/dtheta a smooth even 2*pi-periodic
function, held as its cosine series.  The mean of that series is the
rotation number, the root-find for p/q runs on it, and v, v' and v'' of
the torus chart are the series' integral, value and derivative.  No ODE
is integrated and nothing is interpolated.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct
from scipy.optimize import brentq

from .errors import (ConvergenceError, GenerationFailedError,
                     IntegrationFailureError, InvalidParameterError,
                     NoSolutionError, OutOfWindowError)
from .geometry import GeometryFamily, check_minimality

CIRCULAR_ENERGY = 0.5          # Clairaut constant of the Clifford torus
_ENERGY_FLOOR = 1e-4
_QUAD_NODES = 64               # first node count of the doubling
_QUAD_MAX_NODES = 1 << 16
_QUAD_RTOL = 1e-14             # series tail below rounding, relative to
                               # the mean (the noise floor is 5e-15 at
                               # the energy floor, 4e-16 from c = 0.02)
_CLOSURE_TOL = 1e-12           # |mean dv/dtheta - p/q| at the root
_MINIMALITY_TOL = 1e-10        # build_surface's max |trace A|
_WINDOW_SCAN = 41              # energies in the rotation-window scan


def _check_window(c):
    if not (_ENERGY_FLOOR <= c < CIRCULAR_ENERGY):
        raise OutOfWindowError(
            f"energy {c} outside the oscillatory window "
            f"[{_ENERGY_FLOOR}, {CIRCULAR_ENERGY})")


def _dv_dtheta(c, theta):
    """dv/dtheta along the profile of energy c, at the angles theta.

    Over one radial period dv/da = c / (cos a sqrt(sin^2 a cos^2 a - c^2))
    between the turning points a0 = arcsin(2c)/2 and a1 = pi/2 - a0.
    With a = pi/4 - h cos(theta) the endpoint singularities cancel
    against da = h sin(theta) dtheta: the factor
    sin a cos a - c = sin(a1 - a) sin(a - a0) is written with
    sinc x = sin(x)/x, which leaves
    f = c / (cos a sqrt(sinc(a - a0) sinc(a1 - a) (sin a cos a + c))),
    smooth, even and 2*pi-periodic.  The offsets a - a0 = 2h sin^2(theta/2)
    and a1 - a = 2h cos^2(theta/2) give sin a and cos a too, so no angle
    loses digits to cancellation.
    """
    a0 = 0.5 * np.arcsin(2.0 * c)
    h = 0.5 * np.arccos(2.0 * c)
    s, co = np.sin(0.5 * theta), np.cos(0.5 * theta)
    lo, hi = 2.0 * h * s * s, 2.0 * h * co * co       # a - a0, a1 - a
    sin_a, cos_a = np.sin(a0 + lo), np.sin(a0 + hi)
    return c / (cos_a * np.sqrt(np.sinc(lo / np.pi) * np.sinc(hi / np.pi)
                                * (sin_a * cos_a + c)))


def _cosine_series(c):
    """Coefficients b_k of dv/dtheta = sum_k b_k cos(k theta) at energy c.

    f is sampled at the midpoints theta_j = (j + 1/2) pi / nodes of
    [0, pi]; its DCT-II there gives the coefficients, and b_0 is the
    periodic midpoint mean.  The node count doubles until the upper half
    of the coefficients lies below rounding.
    """
    nodes = _QUAD_NODES
    while nodes <= _QUAD_MAX_NODES:
        theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
        b = dct(_dv_dtheta(c, theta), type=2) / nodes
        b[0] *= 0.5
        if np.abs(b[nodes // 2:]).max() <= _QUAD_RTOL * b[0]:
            return b
        nodes *= 2
    raise ConvergenceError(
        f"cosine series of dv/dtheta for energy {c} did not converge in "
        f"{_QUAD_MAX_NODES} nodes")


def rotation_number(energy):
    """Angular advance over one radial oscillation, divided by 2*pi.

    Monotone increasing on the window, with limits 1/2 (energy -> 0) and
    sqrt(2)/2 (energy -> the circular value 1/2).  It is the mean of
    dv/dtheta over one period of theta.
    """
    c = float(energy)
    _check_window(c)
    return float(_cosine_series(c)[0])


@lru_cache(maxsize=None)
def rotation_window():
    """Scan the energy window; returns (energies, rotation numbers).

    The usable window is determined at runtime from this scan, never
    hardcoded.  Raises if the scan is not strictly monotone.
    """
    energies = np.linspace(0.02, CIRCULAR_ENERGY - 2e-6, _WINDOW_SCAN)
    rots = np.array([rotation_number(c) for c in energies])
    if not np.all(np.diff(rots) > 0):
        raise IntegrationFailureError("rotation number scan is not monotone")
    return energies, rots


@dataclass(frozen=True)
class ProfileCurve:
    """The closed (p, q) profile of Clairaut constant `clairaut`.

    `series` holds the cosine coefficients of dv/dtheta; the profile
    closes after q radial periods, theta in [0, 2*pi*q).
    """

    clairaut: float
    p: int
    q: int
    series: np.ndarray

    @property
    def closure_residual(self):
        """|advance over one radial period - 2*pi*p/q|."""
        return float(2.0 * np.pi * abs(self.series[0] - self.p / self.q))

    def chart(self, theta):
        """(a, v, a', v', a'', v'') at the angles theta, d/dtheta.

        a = pi/4 - h cos(theta) is exact; v = (p/q) theta plus the
        integral of the series without its mean, so v advances by exactly
        2*pi*p over theta in [0, 2*pi*q).  The series is summed once per
        distinct theta mod 2*pi.
        """
        theta = np.asarray(theta, dtype=float)
        base, inverse = np.unique(np.mod(theta, 2.0 * np.pi).ravel(),
                                  return_inverse=True)
        k = np.arange(1, self.series.size)
        b = self.series[1:]
        kt = np.multiply.outer(base, k)
        cos_kt, sin_kt = np.cos(kt), np.sin(kt)
        h = 0.5 * np.arccos(2.0 * self.clairaut)
        hc, hs = h * np.cos(base), h * np.sin(base)
        a, da, dda, wave, dv, ddv = (
            x[inverse].reshape(theta.shape)
            for x in (0.25 * np.pi - hc, hs, hc, sin_kt @ (b / k),
                      self.series[0] + cos_kt @ b, -(sin_kt @ (k * b))))
        return a, self.p / self.q * theta + wave, da, dv, dda, ddv

    def to_dict(self):
        """c, p, q, the closure residual and (theta, a, v, a', v') on one
        radial period's nodes."""
        nodes = self.series.size
        theta = (np.arange(2 * nodes) + 0.5) * (np.pi / nodes)
        a, v, da, dv = self.chart(theta)[:4]
        return {
            "clairaut": self.clairaut,
            "p": self.p,
            "q": self.q,
            "closure_residual": self.closure_residual,
            "samples": np.stack([theta, a, v, da, dv], axis=1).tolist(),
        }


def find_otsuki(p, q):
    """Root-find the energy whose rotation number is p/q.

    The profile keeps the cosine series of dv/dtheta at the root; it
    fails loudly if the series' mean misses p/q by more than rounding.
    """
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise InvalidParameterError("p and q must be positive integers")
    if math.gcd(p, q) != 1:
        raise InvalidParameterError(f"(p, q) = ({p}, {q}) is not coprime")
    target = p / q
    energies, rots = rotation_window()
    if not (rots[0] < target < rots[-1]):
        raise NoSolutionError(
            f"rotation number {p}/{q} = {target:.6f} outside the scanned "
            f"window ({rots[0]:.6f}, {rots[-1]:.6f})")
    i = int(np.searchsorted(rots, target))
    lo, hi = energies[i - 1], energies[i]
    energy = brentq(lambda c: rotation_number(c) - target, lo, hi,
                    xtol=1e-14, rtol=8.9e-16)
    profile = ProfileCurve(clairaut=float(energy), p=p, q=q,
                           series=_cosine_series(energy))
    if profile.closure_residual > 2.0 * np.pi * _CLOSURE_TOL:
        raise ConvergenceError(
            f"profile closure residual {profile.closure_residual:.3e} "
            f"exceeds tolerance")
    return profile


def build_surface(profile, nt=256, nphi=64):
    """Immersed torus X(theta, phi) in S^3 from a closed profile.

    theta runs over the q radial periods [0, 2*pi*q), phi over the
    rotation circle [0, 2*pi).  Fails loudly if the assembled surface is
    not minimal to 1e-10.
    """
    if nt < 16 or nphi < 16:
        raise InvalidParameterError("resolutions below 16 are not supported")

    def _fields(u):
        """X, (X_t, X_phi), nu, A, |A|^2 and sqrt(g) in one pass.

        With the unit vectors e_a = dX/d(alpha) and e_v = dX/(cos(alpha) dv),
        X_t = alpha' e_a + v' cos(alpha) e_v and the unit normal is
        nu = (v' cos(alpha) e_a - alpha' e_v) / |X_t|, oriented so that
        det[X, X_t, X_phi, nu] < 0.  h_ij = <nu, X_ij> is expanded in the
        same frame: X_tt = alpha'' e_a - alpha'^2 X
        + (v'' cos(alpha) - 2 alpha' v' sin(alpha)) e_v - v'^2 cos(alpha) e_r
        with e_r = (cos v, sin v, 0, 0), X_t,phi is along e_phi, normal
        to nu, and X_phi,phi = -sin(alpha) (0, 0, cos phi, sin phi).
        """
        u = np.asarray(u, dtype=float)
        t, phi = u[..., 0], u[..., 1]
        # v'' is the derivative of the series, not the profile equation,
        # so the minimality self-check is a genuine consistency test
        al, vv, d_a, d_v, dda, ddv = profile.chart(t)
        ca, sa = np.cos(al), np.sin(al)
        cv, sv = np.cos(vv), np.sin(vv)
        cp, sp = np.cos(phi), np.sin(phi)
        zero = np.zeros_like(ca)
        X = np.stack([ca * cv, ca * sv, sa * cp, sa * sp], axis=-1)
        e_a = np.stack([-sa * cv, -sa * sv, ca * cp, ca * sp], axis=-1)
        e_v = np.stack([-sv, cv, zero, zero], axis=-1)
        w_v = d_v * ca
        speed = np.sqrt(d_a ** 2 + w_v ** 2)
        dX = np.stack([d_a[..., None] * e_a + w_v[..., None] * e_v,
                       np.stack([zero, zero, -sa * sp, sa * cp], axis=-1)],
                      axis=-2)
        nu = (w_v[..., None] * e_a - d_a[..., None] * e_v) / speed[..., None]
        # <nu, e_a> = w_v / speed, <nu, e_v> = -d_a / speed, <nu, X> = 0,
        # <nu, e_r> = -sa w_v / speed and <nu, (0, 0, cp, sp)> = ca w_v / speed
        h11 = (dda * w_v - d_a * (ddv * ca - 2.0 * d_a * d_v * sa)
               + d_v * w_v ** 2 * sa) / speed
        h22 = -sa * ca * w_v / speed
        A = np.zeros(t.shape + (2, 2))
        A[..., 0, 0] = h11 / speed ** 2
        A[..., 1, 1] = h22 / sa ** 2
        asq = A[..., 0, 0] ** 2 + A[..., 1, 1] ** 2
        return X, dX, nu, A, asq, speed * sa

    def field(i):
        return lambda u: _fields(u)[i]

    family = GeometryFamily(
        name=f"otsuki({profile.p},{profile.q})",
        periods=(2.0 * np.pi * profile.q, 2.0 * np.pi),
        position=field(0),
        tangents=field(1),
        normal=field(2),
        shape_frame=field(3),
        asq=field(4),
        sqrt_det_g=field(5),
    )
    # self-check on the requested mesh resolution, never skipped
    trace = check_minimality(family, (nt, nphi))
    if trace > _MINIMALITY_TOL:
        raise GenerationFailedError(
            f"minimality self-check failed: max |trace A| = {trace:.3e}")
    return family
