"""Rotationally invariant minimal tori in S^3 from Clairaut's integral.

S^1-invariant minimal surfaces in S^3 reduce to geodesics of the orbit
metric sin^2(a) (da^2 + cos^2(a) dv^2) on the quotient strip.  The
conserved Clairaut constant c = sin^2(a) cos^2(a) v' parametrizes the
radial oscillations and plays the role of the energy; c -> 1/2 is the
circular (Clifford) solution.  A profile closes up into a torus when the
angular advance over one radial period is 2*pi*p/q.

The advance is Clairaut's integral between the turning points, evaluated
by quadrature; the root-find for p/q needs no ODE.  The profile at the
root is then sampled from one ODE period, which also certifies the root:
its advance, closure and Clairaut drift are checked against the ODE.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (ConvergenceError, GenerationFailedError,
                     IntegrationFailureError, InvalidParameterError,
                     NoSolutionError, OutOfWindowError)
from .geometry import GeometryFamily, check_minimality

CIRCULAR_ENERGY = 0.5          # Clairaut constant of the Clifford torus
_ENERGY_FLOOR = 1e-4
_LEAD_TIME = 1e-3              # event-free lead-in past the turning point
_ODE_TOL = 1e-12
_T_MAX = 100.0
_N_SAMPLES = 2001
_QUAD_NODES = 64               # first midpoint rule of the doubling
_QUAD_MAX_NODES = 1 << 16
_QUAD_RTOL = 1e-14             # two successive sums agree to rounding
_WINDOW_SCAN = 41              # energies in the rotation-window scan


def _accel(a, da, dv):
    """Geodesic accelerations of the orbit metric."""
    s2 = np.sin(2.0 * a)
    s4 = np.sin(4.0 * a)
    sa2 = np.sin(a) ** 2
    ca2 = np.cos(a) ** 2
    dda = -(s2 / (2.0 * sa2)) * da * da + (s4 / (4.0 * sa2)) * dv * dv
    ddv = -(s4 / (2.0 * sa2 * ca2)) * da * dv
    return dda, ddv


def _rhs(t, y):
    a, _, da, dv = y
    dda, ddv = _accel(a, da, dv)
    return [da, dv, dda, ddv]


def _check_window(c):
    if not (_ENERGY_FLOOR <= c < CIRCULAR_ENERGY):
        raise OutOfWindowError(
            f"energy {c} outside the oscillatory window "
            f"[{_ENERGY_FLOOR}, {CIRCULAR_ENERGY})")


def _integrate_period(energy):
    """Integrate one radial oscillation starting at the inner turning point.

    Returns (T, dense evaluator over [0, T]).
    """
    c = float(energy)
    _check_window(c)
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
    sol = solve_ivp(_rhs, (_LEAD_TIME, _T_MAX), lead.y[:, -1], method="DOP853",
                    rtol=_ODE_TOL, atol=_ODE_TOL, events=turning,
                    dense_output=True)
    if not sol.success:
        raise IntegrationFailureError(sol.message)
    if len(sol.t_events[0]) == 0:
        raise OutOfWindowError(
            f"no radial oscillation detected for energy {c}")
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


def _clairaut_sum(c, nodes):
    """Midpoint rule with `nodes` nodes for the rotation number at c.

    Over one radial period dv/da = c / (cos a sqrt(sin^2 a cos^2 a - c^2))
    between the turning points a0 = arcsin(2c)/2 and a1 = pi/2 - a0.  With
    a = pi/4 - h cos(theta), h = arccos(2c)/2, the endpoint singularities
    cancel against da = h sin(theta) dtheta, and the integrand is smooth
    and even in theta, so the midpoint rule converges spectrally.  The
    cancelling factor sin a cos a - c = cos(a + a0) sin(a - a0)
    = sin(a1 - a) sin(a - a0) is formed from the offsets
    a - a0 = 2h sin^2(theta/2) and a1 - a = 2h cos^2(theta/2), and so are
    sin a and cos a, so no node loses digits to cancellation.
    """
    a0 = 0.5 * np.arcsin(2.0 * c)
    h = 0.5 * np.arccos(2.0 * c)
    half_theta = (np.arange(nodes) + 0.5) * (0.5 * np.pi / nodes)
    s, co = np.sin(half_theta), np.cos(half_theta)
    lo, hi = 2.0 * h * s * s, 2.0 * h * co * co       # a - a0, a1 - a
    sin_a, cos_a = np.sin(a0 + lo), np.sin(a0 + hi)
    f = (2.0 * c * h * s * co
         / (cos_a * np.sqrt(np.sin(lo) * np.sin(hi)
                            * (sin_a * cos_a + c))))
    # f = dv/dtheta; Delta v = 2 (pi / nodes) sum f, divided by 2 pi
    return float(f.sum() / nodes)


def rotation_number(energy):
    """Angular advance over one radial oscillation, divided by 2*pi.

    Monotone increasing on the window, with limits 1/2 (energy -> 0) and
    sqrt(2)/2 (energy -> the circular value 1/2).  Clairaut's integral by
    a midpoint rule whose node count doubles until two successive sums
    agree to rounding level.
    """
    c = float(energy)
    _check_window(c)
    nodes = _QUAD_NODES
    prev = _clairaut_sum(c, nodes)
    while nodes < _QUAD_MAX_NODES:
        nodes *= 2
        rot = _clairaut_sum(c, nodes)
        if abs(rot - prev) <= _QUAD_RTOL * rot:
            return rot
        prev = rot
    raise ConvergenceError(
        f"Clairaut quadrature for energy {c} did not converge in "
        f"{_QUAD_MAX_NODES} nodes")


def _advance(T, evaluate):
    return float(evaluate(T)[1, 0] / (2.0 * np.pi))


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
    """One radial period of a closed (p, q) profile.

    `ode_advance_residual` is the ODE's rotation number at the quadrature
    root minus p/q: how well the two computations of the advance agree.
    """

    period: float
    t: np.ndarray
    alpha: np.ndarray
    v: np.ndarray
    dalpha: np.ndarray
    dv: np.ndarray
    clairaut: float
    p: int
    q: int
    ode_advance_residual: float

    def to_dict(self):
        return {
            "period": self.period,
            "clairaut": self.clairaut,
            "p": self.p,
            "q": self.q,
            "samples": np.stack(
                [self.t, self.alpha, self.v, self.dalpha, self.dv], axis=1
            ).tolist(),
        }

    @property
    def closure_residual(self):
        return abs(self.v[-1] - self.v[0] - 2.0 * np.pi * self.p / self.q)

    @property
    def clairaut_drift(self):
        c = np.sin(self.alpha) ** 2 * np.cos(self.alpha) ** 2 * self.dv
        return float((c.max() - c.min()) / abs(self.clairaut))


def find_otsuki(p, q, tol=1e-10):
    """Root-find the energy whose rotation number is p/q and sample it.

    The root-find runs on the quadrature `rotation_number`; one ODE period
    at the root then gives the samples.  It fails loudly if the ODE's
    advance there misses p/q, if the samples do not close up, or if the
    Clairaut constant drifts along them.
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
    # the only ODE solve: it samples the profile and certifies the root
    T, evaluate = _integrate_period(energy)
    residual = _advance(T, evaluate) - target
    if abs(residual) > max(tol, 1e-12):
        raise ConvergenceError(
            f"root finder stagnated for rotation number {p}/{q}")
    ts = np.linspace(0.0, T, _N_SAMPLES)
    a, v, da, dv = evaluate(ts)
    profile = ProfileCurve(period=T, t=ts, alpha=a, v=v, dalpha=da, dv=dv,
                           clairaut=float(energy), p=p, q=q,
                           ode_advance_residual=residual)
    if profile.closure_residual > max(10.0 * tol, 1e-8):
        raise ConvergenceError(
            f"profile closure residual {profile.closure_residual:.3e} "
            f"exceeds tolerance")
    if profile.clairaut_drift > 1e-9:
        raise IntegrationFailureError(
            f"Clairaut drift {profile.clairaut_drift:.3e} over one period")
    return profile


def build_surface(profile, nt=256, nphi=64):
    """Immersed torus X(t, phi) in S^3 from a closed profile.

    t runs over the full closed curve [0, q*T) (arc length of the orbit
    metric), phi over the rotation circle [0, 2*pi).  Fails loudly if the
    assembled surface is not minimal to 1e-6.
    """
    if nt < 16 or nphi < 16:
        raise InvalidParameterError("resolutions below 16 are not supported")
    T = profile.period
    ts, v = profile.t, profile.v
    # alpha, alpha', v' and v - omega t are T-periodic; the periodic
    # spline on one radial period is the interpolant over all q of them
    omega = (v[-1] - v[0]) / T

    def periodic(y):
        y = np.array(y)
        y[-1] = y[0]
        return CubicSpline(ts, y, bc_type="periodic")

    spl_a, spl_da, spl_dv = (periodic(y) for y in
                             (profile.alpha, profile.dalpha, profile.dv))
    spl_dev = periodic(v - omega * ts)

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
        tm = np.mod(t, T)
        al = spl_a(tm)
        vv = omega * t + spl_dev(tm)
        d_a, d_v = spl_da(tm), spl_dv(tm)
        # second derivatives from the splines, independent of the ODE,
        # so the minimality self-check is a genuine consistency test
        dda, ddv = spl_da(tm, 1), spl_dv(tm, 1)
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
        periods=(profile.q * T, 2.0 * np.pi),
        position=field(0),
        tangents=field(1),
        normal=field(2),
        shape_frame=field(3),
        asq=field(4),
        sqrt_det_g=field(5),
    )
    # self-check on the requested mesh resolution, never skipped
    trace = check_minimality(family, (nt, nphi))
    if trace > 1e-6:
        raise GenerationFailedError(
            f"minimality self-check failed: max |trace A| = {trace:.3e}")
    return family
