"""Analytic families of minimal hypersurfaces of round spheres.

A family bundles vectorized evaluators for the immersion x(u), the unit
normal nu(u), the shape operator expressed in a Gram-Schmidt tangent
frame, |A|^2 and the chart area element.  Everything is closed-form;
nothing is reconstructed from meshes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class ParamDomain:
    """Rectangular chart domain with per-dimension periodicity flags."""

    lows: tuple
    highs: tuple
    periodic: tuple

    @property
    def dim(self):
        return len(self.lows)

    def spans(self):
        return tuple(h - l for l, h in zip(self.lows, self.highs))


@dataclass(frozen=True)
class GeometryFamily:
    """Immersed minimal hypersurface M^n of S^{n+1} given in one chart.

    Evaluators accept parameter arrays of shape (..., n) and broadcast.
    ``shape_frame`` returns the shape operator in the orthonormal frame
    obtained by Gram-Schmidt of the coordinate tangents, in order.
    """

    name: str
    ambient_dim: int
    surface_dim: int
    param_domain: ParamDomain
    position: Callable
    tangents: Callable
    normal: Callable
    shape_frame: Callable
    asq: Callable
    sqrt_det_g: Callable

    @property
    def doubly_periodic(self):
        return self.surface_dim == 2 and all(self.param_domain.periodic)


# ----------------------------------------------------------------------
# hyperspherical chart of the unit sphere S^m in R^{m+1}
# ----------------------------------------------------------------------

def _sphere_point(theta):
    theta = np.asarray(theta, dtype=float)
    m = theta.shape[-1]
    sin = np.sin(theta)
    cos = np.cos(theta)
    x = np.empty(theta.shape[:-1] + (m + 1,))
    prod = np.ones(theta.shape[:-1])
    for i in range(m):
        x[..., i] = prod * cos[..., i]
        prod = prod * sin[..., i]
    x[..., m] = prod
    return x


def _sphere_jacobian(theta):
    """d x / d theta_j, shape (..., m, m+1)."""
    theta = np.asarray(theta, dtype=float)
    m = theta.shape[-1]
    sin = np.sin(theta)
    cos = np.cos(theta)
    J = np.zeros(theta.shape[:-1] + (m, m + 1))
    for i in range(m + 1):
        # coordinate i is cos(theta_i) * prod_{l<i} sin(theta_l)
        # (with cos factor absent for i == m)
        for j in range(min(i + 1, m)):
            term = np.ones(theta.shape[:-1])
            for l in range(i):
                if l == j:
                    term = term * cos[..., l]
                else:
                    term = term * sin[..., l]
            if i < m:
                if j == i:
                    term = term * (-sin[..., i])
                else:
                    term = term * cos[..., i]
            J[..., j, i] = term
    return J


def _sphere_sqrt_det_g(theta):
    theta = np.asarray(theta, dtype=float)
    m = theta.shape[-1]
    out = np.ones(theta.shape[:-1])
    for i in range(m - 1):
        out = out * np.sin(theta[..., i]) ** (m - 1 - i)
    return out


def _sphere_domain(m):
    lows = [0.0] * m
    highs = [np.pi] * (m - 1) + [2.0 * np.pi]
    periodic = [False] * (m - 1) + [True]
    return tuple(lows), tuple(highs), tuple(periodic)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def equator(n):
    """Totally geodesic S^n inside S^{n+1}; |A|^2 = 0 everywhere."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidParameterError(f"equator requires integer n >= 2, got {n!r}")
    n = int(n)
    lows, highs, periodic = _sphere_domain(n)
    axis = np.zeros(n + 2)
    axis[n + 1] = 1.0

    def position(u):
        x = _sphere_point(u)
        return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)

    def tangents(u):
        J = _sphere_jacobian(u)
        return np.concatenate([J, np.zeros(J.shape[:-1] + (1,))], axis=-1)

    def normal(u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(axis, u.shape[:-1] + (n + 2,)).copy()

    def shape(u):
        u = np.asarray(u, dtype=float)
        return np.zeros(u.shape[:-1] + (n, n))

    def asq(u):
        u = np.asarray(u, dtype=float)
        return np.zeros(u.shape[:-1])

    return GeometryFamily(
        name=f"equator({n})",
        ambient_dim=n + 2,
        surface_dim=n,
        param_domain=ParamDomain(lows, highs, periodic),
        position=position,
        tangents=tangents,
        normal=normal,
        shape_frame=shape,
        asq=asq,
        sqrt_det_g=_sphere_sqrt_det_g,
    )


def clifford(n, k):
    """Minimal product S^k(r) x S^{n-k}(s) with r = sqrt(k/n), s = sqrt((n-k)/n)."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidParameterError(f"clifford requires integer n >= 2, got {n!r}")
    if not isinstance(k, (int, np.integer)) or not (1 <= k <= n - 1):
        raise InvalidParameterError(f"clifford requires 1 <= k <= n-1, got k={k!r}")
    n, k = int(n), int(k)
    m1, m2 = k, n - k
    r = np.sqrt(k / n)
    s = np.sqrt((n - k) / n)
    l1, h1, p1 = _sphere_domain(m1)
    l2, h2, p2 = _sphere_domain(m2)
    # constant principal curvatures in the Gram-Schmidt frame
    A_const = np.diag([-s / r] * m1 + [r / s] * m2)
    asq_const = m1 * (s / r) ** 2 + m2 * (r / s) ** 2

    def split(u):
        u = np.asarray(u, dtype=float)
        return u[..., :m1], u[..., m1:]

    def position(u):
        t, p = split(u)
        return np.concatenate([r * _sphere_point(t), s * _sphere_point(p)], axis=-1)

    def tangents(u):
        t, p = split(u)
        Jt = r * _sphere_jacobian(t)
        Jp = s * _sphere_jacobian(p)
        shp = np.broadcast_shapes(Jt.shape[:-2], Jp.shape[:-2])
        out = np.zeros(shp + (n, n + 2))
        out[..., :m1, : m1 + 1] = Jt
        out[..., m1:, m1 + 1:] = Jp
        return out

    def normal(u):
        t, p = split(u)
        return np.concatenate([s * _sphere_point(t), -r * _sphere_point(p)], axis=-1)

    def shape(u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(A_const, u.shape[:-1] + (n, n)).copy()

    def asq(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], asq_const)

    def sqrtg(u):
        t, p = split(u)
        return (r ** m1) * (s ** m2) * _sphere_sqrt_det_g(t) * _sphere_sqrt_det_g(p)

    return GeometryFamily(
        name=f"clifford({n},{k})",
        ambient_dim=n + 2,
        surface_dim=n,
        param_domain=ParamDomain(l1 + l2, h1 + h2, p1 + p2),
        position=position,
        tangents=tangents,
        normal=normal,
        shape_frame=shape,
        asq=asq,
        sqrt_det_g=sqrtg,
    )


def sample_grid(family, per_dim):
    """Interior parameter sample grid, shape (prod(per_dim), n).

    Periodic directions use the uniform lattice; bounded directions use
    midpoints, which keeps hyperspherical charts away from their poles.
    """
    dom = family.param_domain
    if np.isscalar(per_dim):
        per_dim = (int(per_dim),) * dom.dim
    axes = []
    for i, m in enumerate(per_dim):
        lo, hi = dom.lows[i], dom.highs[i]
        if dom.periodic[i]:
            axes.append(lo + (hi - lo) * np.arange(m) / m)
        else:
            axes.append(lo + (hi - lo) * (np.arange(m) + 0.5) / m)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def check_minimality(family, per_dim=32):
    """Max |trace A| over a sample grid; zero for minimal immersions."""
    u = sample_grid(family, per_dim)
    A = family.shape_frame(u)
    return float(np.abs(np.trace(A, axis1=-2, axis2=-1)).max())
