"""Doubly periodic charts of minimal tori in S^3.

A family is one vectorized field pass ``sample(u)`` on the periodic
rectangle [0, L_t) x [0, L_phi): it returns the immersion x(u), the
coordinate tangents, the unit normal nu(u), the shape operator expressed
in a Gram-Schmidt tangent frame, |A|^2 and the chart area element
together.  The six named fields are views of that pass; the library
reads only ``sample``.  Everything is closed-form; nothing is
reconstructed from meshes.  The Clifford torus lives here; rotational
tori come from ``mhs.rotational``.  Spectra in any dimension are in
``mhs.closedform``.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError


# the components of ``GeometryFamily.sample``, in order
FIELDS = ("position", "tangents", "normal", "shape_frame", "asq",
          "sqrt_det_g")


@dataclass(frozen=True)
class GeometryFamily:
    """Immersed minimal torus in S^3 on a doubly periodic chart.

    ``periods`` = (L_t, L_phi) are the chart periods.  ``sample(u)``
    takes parameter arrays of shape (..., 2) and returns, in one pass,
    (position, tangents, normal, shape_frame, asq, sqrt_det_g) with
    shapes (..., 4), (..., 2, 4), (..., 4), (..., 2, 2), (...) and (...).
    ``shape_frame`` is the shape operator in the orthonormal frame
    obtained by Gram-Schmidt of the coordinate tangents, in order.

    The six named fields are single-field views of ``sample``, filled in
    when left unset.  The library reads only ``sample``, so swapping a
    view changes nothing it computes: a changed chart is a new family
    built around a changed ``sample``.
    """

    name: str
    periods: tuple
    sample: Callable
    position: Optional[Callable] = None
    tangents: Optional[Callable] = None
    normal: Optional[Callable] = None
    shape_frame: Optional[Callable] = None
    asq: Optional[Callable] = None
    sqrt_det_g: Optional[Callable] = None

    def __post_init__(self):
        for i, field in enumerate(FIELDS):
            if getattr(self, field) is None:
                object.__setattr__(self, field,
                                   lambda u, i=i: self.sample(u)[i])


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

    def sample(u):
        u = np.asarray(u, dtype=float)
        t, p = u[..., 0], u[..., 1]
        ct, st, cp, sp = np.cos(t), np.sin(t), np.cos(p), np.sin(p)
        zero = np.zeros_like(ct)
        tangents = r * np.stack([np.stack([-st, ct, zero, zero], axis=-1),
                                 np.stack([zero, zero, -sp, cp], axis=-1)],
                                axis=-2)
        return (r * np.stack([ct, st, cp, sp], axis=-1), tangents,
                r * np.stack([ct, st, -cp, -sp], axis=-1),
                np.broadcast_to(A_const, t.shape + (2, 2)).copy(),
                np.full(t.shape, 2.0), np.full(t.shape, r * r))

    return GeometryFamily(name="clifford(2,1)",
                          periods=(2.0 * np.pi, 2.0 * np.pi), sample=sample)


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
    A = family.sample(u)[3]
    return float(np.abs(np.trace(A, axis1=-2, axis2=-1)).max())
