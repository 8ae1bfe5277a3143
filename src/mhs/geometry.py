"""Doubly periodic charts of minimal tori in S^3.

A family bundles vectorized evaluators for the immersion x(u), the unit
normal nu(u), the shape operator expressed in a Gram-Schmidt tangent
frame, |A|^2 and the chart area element on the periodic rectangle
[0, L_t) x [0, L_phi).  Everything is closed-form; nothing is
reconstructed from meshes.  The Clifford torus lives here; rotational
tori come from ``mhs.rotational``.  Spectra in any dimension are in
``mhs.closedform``.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class GeometryFamily:
    """Immersed minimal torus in S^3 on a doubly periodic chart.

    ``periods`` = (L_t, L_phi) are the chart periods.  Evaluators accept
    parameter arrays of shape (..., 2) and broadcast.  ``shape_frame``
    returns the shape operator in the orthonormal frame obtained by
    Gram-Schmidt of the coordinate tangents, in order.
    """

    name: str
    periods: tuple
    position: Callable
    tangents: Callable
    normal: Callable
    shape_frame: Callable
    asq: Callable
    sqrt_det_g: Callable


def clifford(n, k):
    """Minimal Clifford torus S^1(1/sqrt 2) x S^1(1/sqrt 2) in S^3.

    Only (n, k) = (2, 1) has a chart here; the product spectra
    S^k x S^{n-k} for every n are ``closedform.clifford_jacobi``.
    """
    if not (isinstance(n, (int, np.integer))
            and isinstance(k, (int, np.integer)) and (n, k) == (2, 1)):
        raise InvalidParameterError(
            f"clifford charts exist only for (n, k) = (2, 1), "
            f"got ({n!r}, {k!r})")
    r = np.sqrt(0.5)
    # principal curvatures -1, 1 in the Gram-Schmidt frame
    A_const = np.diag([-1.0, 1.0])

    def circles(u):
        u = np.asarray(u, dtype=float)
        t, p = u[..., 0], u[..., 1]
        return np.cos(t), np.sin(t), np.cos(p), np.sin(p)

    def position(u):
        ct, st, cp, sp = circles(u)
        return r * np.stack([ct, st, cp, sp], axis=-1)

    def tangents(u):
        ct, st, cp, sp = circles(u)
        zero = np.zeros_like(ct)
        return r * np.stack([np.stack([-st, ct, zero, zero], axis=-1),
                             np.stack([zero, zero, -sp, cp], axis=-1)],
                            axis=-2)

    def normal(u):
        ct, st, cp, sp = circles(u)
        return r * np.stack([ct, st, -cp, -sp], axis=-1)

    def shape(u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(A_const, u.shape[:-1] + (2, 2)).copy()

    def asq(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], 2.0)

    def sqrtg(u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], r * r)

    return GeometryFamily(
        name="clifford(2,1)",
        periods=(2.0 * np.pi, 2.0 * np.pi),
        position=position,
        tangents=tangents,
        normal=normal,
        shape_frame=shape,
        asq=asq,
        sqrt_det_g=sqrtg,
    )


def sample_grid(family, per_dim):
    """Periodic lattice of chart points, shape (nt * nphi, 2).

    ``per_dim`` is (nt, nphi) or one side for both.
    """
    if np.isscalar(per_dim):
        per_dim = (int(per_dim),) * 2
    axes = [L * np.arange(m) / m for L, m in zip(family.periods, per_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def check_minimality(family, per_dim=32):
    """Max |trace A| over a sample grid; zero for minimal immersions."""
    u = sample_grid(family, per_dim)
    A = family.shape_frame(u)
    return float(np.abs(np.trace(A, axis1=-2, axis2=-1)).max())
