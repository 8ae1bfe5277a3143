"""Exact spectral oracles: spheres, their minimal products, equators.

All eigenvalues and multiplicities are computed in exact arithmetic
(integers and Fractions), so the index and nullity counts carry zero
floating-point error.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError


@dataclass(frozen=True)
class SpectrumTable:
    """Ascending (eigenvalue, multiplicity) pairs, complete below cutoff."""

    entries: tuple        # ((eigenvalue, multiplicity), ...)
    cutoff: float

    def __post_init__(self):
        vals = [e for e, _ in self.entries]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise InvalidParameterError("eigenvalues must strictly increase")
        if any(m < 1 for _, m in self.entries):
            raise InvalidParameterError("multiplicities must be positive")

    def to_dict(self):
        return {"entries": [[float(e), int(m)] for e, m in self.entries],
                "cutoff": float(self.cutoff)}


def harmonic_dim(m, j):
    """Dimension of degree-j spherical harmonics on S^m (m >= 1)."""
    if j < 0:
        return 0
    if j < 2:
        return 1 if j == 0 else m + 1
    # dim of homogeneous harmonics in m+1 variables
    return math.comb(m + j, j) - math.comb(m + j - 2, j - 2)


def sphere_spectrum(m, jmax):
    """Laplace spectrum of the unit S^m up to harmonic degree jmax."""
    if m < 1:
        raise InvalidParameterError("sphere dimension must be >= 1")
    if jmax < 0:
        raise InvalidParameterError("jmax must be >= 0")
    entries = tuple((j * (j + m - 1), harmonic_dim(m, j))
                    for j in range(jmax + 1))
    cutoff = (jmax + 1) * (jmax + m)
    return SpectrumTable(entries=entries, cutoff=float(cutoff))


def _merge(pairs):
    table = {}
    for e, m in pairs:
        table[e] = table.get(e, 0) + m
    return tuple(sorted(table.items()))


def _cutoff(cutoff, n):
    """cutoff, 2n + 1 by default; one <= 0 would cut the counted values."""
    if cutoff is not None and not 0 < cutoff < math.inf:
        raise InvalidParameterError(
            f"cutoff must be finite and > 0, got {cutoff}")
    return 2 * n + 1 if cutoff is None else cutoff


def clifford_jacobi(n, k, cutoff=None):
    """Stability spectrum of the minimal S^k(r) x S^{n-k}(s) product.

    Eigenfunctions separate into products of spherical harmonics; the
    stability eigenvalue of the (j, i) mode is
    mu_j / r^2 + mu_i / s^2 - 2n with r^2 = k/n, s^2 = (n-k)/n.
    Returns (SpectrumTable, index, nullity).
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    if not (1 <= k <= n - 1):
        raise InvalidParameterError("k must satisfy 1 <= k <= n-1")
    cutoff = Fraction(_cutoff(cutoff, n))
    inv_r2 = Fraction(n, k)
    inv_s2 = Fraction(n, n - k)
    pairs = []
    j = 0
    # factor eigenvalues are increasing in degree, so bounding each
    # degree by the cutoff guarantees completeness of the table
    while Fraction(j * (j + k - 1)) * inv_r2 - 2 * n < cutoff:
        i = 0
        while True:
            ev = (Fraction(j * (j + k - 1)) * inv_r2
                  + Fraction(i * (i + n - k - 1)) * inv_s2 - 2 * n)
            if ev >= cutoff:
                break
            pairs.append((ev, harmonic_dim(k, j) * harmonic_dim(n - k, i)))
            i += 1
        j += 1
    entries = _merge(pairs)
    index = sum(m for e, m in entries if e < 0)
    nullity = sum(m for e, m in entries if e == 0)
    table = SpectrumTable(entries=entries, cutoff=float(cutoff))
    return table, index, nullity


def equator_jacobi(n, cutoff=None):
    """Stability spectrum of the totally geodesic S^n in S^{n+1}.

    With |A|^2 = 0 the stability eigenvalues are j(j+n-1) - n.
    Returns (SpectrumTable, index, nullity).
    """
    if n < 2:
        raise InvalidParameterError("n must be >= 2")
    cutoff = _cutoff(cutoff, n)
    pairs = []
    j = 0
    while j * (j + n - 1) - n < cutoff:
        pairs.append((j * (j + n - 1) - n, harmonic_dim(n, j)))
        j += 1
    entries = _merge(pairs)
    index = sum(m for e, m in entries if e < 0)
    nullity = sum(m for e, m in entries if e == 0)
    table = SpectrumTable(entries=entries, cutoff=float(cutoff))
    return table, index, nullity
