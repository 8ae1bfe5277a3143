"""Generalized eigenvalue solves for the stability pencil (K - W, Mm).

Two independent counting paths are provided: eigensolves (dense, or
shift-invert Lanczos on large systems) for the lowest eigenpairs, and
the signature of a symmetric indefinite factorization for inertia
counts.  Every reported index is expected to agree across both.

On a chart grid whose pencil is invariant under the one-step shift in
the rotation angle phi (every torus the package builds), the pencil is
block-circulant and both paths run on one small dense pencil per
phi-Fourier mode instead (``PhiModes``).
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import (InvalidParameterError, MultiplicityWarningError,
                     NumericalFailureError, ShiftRetryExhaustedError)

_DENSE_LIMIT = 2000
_RESIDUAL_TOL = 1e-8
_SHIFT_RETRIES = 6
_SHIFT_TOL = 1e-12   # phi-shift invariance, relative to max |entry|


@dataclass(frozen=True)
class EigenReport:
    """Sorted lowest eigenvalues of the stability pencil with counts."""

    eigenvalues: np.ndarray
    index: int           # eigenvalues < -zero_tol
    nullity: int         # |eigenvalue| <= zero_tol
    zero_tol: float
    lambda1: float
    # the window ends at or below zero_tol, so index and nullity are
    # only lower bounds
    window_saturated: bool
    path: str            # "dense", "shift-invert" or "phi-modes"
    modes: Optional[np.ndarray] = None     # phi-Fourier mode of each value
    vectors: Optional[np.ndarray] = None   # columns, Mm-orthonormal

    def to_dict(self):
        return {"eigenvalues": self.eigenvalues.tolist(),
                "index": self.index, "nullity": self.nullity,
                "zero_tol": self.zero_tol, "lambda1": self.lambda1,
                "window_saturated": self.window_saturated,
                "path": self.path,
                "modes": None if self.modes is None else self.modes.tolist()}


def _residual_check(B, Mm, vals, vecs):
    R = B @ vecs - (Mm @ vecs) * vals
    res = np.linalg.norm(R, axis=0)
    xm = np.sqrt(np.abs(np.einsum("ij,ij->j", vecs.conj(), Mm @ vecs)))
    bad = res > (_RESIDUAL_TOL * np.maximum(xm, 1.0)
                 * np.maximum(np.abs(vals), 1.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalFailureError(
            f"eigenpair residual {res[i]:.3e} exceeds "
            f"tolerance at eigenvalue {vals[i]:.6g}")


def _shift_invariant(A, perm):
    scale = abs(A).max()
    return abs(A[perm][:, perm] - A).max() <= _SHIFT_TOL * scale


def _offset_blocks(A, nt, nphi):
    """(offsets s, blocks C_s) with C_s[i, l] = A[(i, 0), (l, s)]."""
    R = A[np.arange(nt) * nphi].tocoo()
    l, s = np.divmod(R.col, nphi)
    offsets = np.unique(s)
    C = np.zeros((len(offsets), nt, nt))
    C[np.searchsorted(offsets, s), R.row, l] = R.data
    return offsets, C


@dataclass(frozen=True)
class _ModeSpectrum:
    values: list          # per mode k: ascending eigenvalues
    eigenvalues: np.ndarray   # all of them, ascending, complex modes twice
    modes: np.ndarray     # mode k of each entry
    columns: np.ndarray   # column of each entry in lift(k, U)


class PhiModes:
    """The pencil of an (nt, nphi) chart grid split over phi-Fourier modes.

    Node (i, j) is i*nphi + j.  When B and Mm are invariant under the
    shift j -> j + 1, they are block-circulant with nt x nt blocks C_s
    (offset s in phi), and x(i, j) = u(i) e^(2 pi i j k / nphi) is an
    eigenvector exactly when u solves the mode pencil
    (sum_s C_s^B w^(sk), sum_s C_s^M w^(sk)) with w = e^(2 pi i / nphi).
    Modes k and -k are complex conjugate, so the real pencil has each
    eigenvalue of a mode 0 < k < nphi/2 twice (the real and imaginary
    parts of x); modes 0 and nphi/2 are real and count once.
    """

    def __init__(self, nt, nphi, B, Mm):
        self.nt, self.nphi = nt, nphi
        self._B = _offset_blocks(B, nt, nphi)
        self._Mm = _offset_blocks(Mm, nt, nphi)
        self._checked = np.zeros(self.count, dtype=int)

    @classmethod
    def build(cls, B, Mm, grid_shape):
        """The split, or None without a grid or without shift invariance."""
        if grid_shape is None:
            return None
        nt, nphi = grid_shape
        if nt * nphi != B.shape[0]:
            return None
        shift = (np.arange(nt)[:, None] * nphi
                 + (np.arange(nphi) + 1) % nphi).ravel()
        if not (_shift_invariant(B, shift) and _shift_invariant(Mm, shift)):
            return None
        return cls(nt, nphi, B, Mm)

    @property
    def count(self):
        """Number of distinct modes k = 0 .. nphi // 2."""
        return self.nphi // 2 + 1

    def multiplicity(self, k):
        return 1 if (2 * k) % self.nphi == 0 else 2

    def _mode_sum(self, blocks, k):
        # The LAPACK solvers read one triangle, so the real part is left
        # symmetric up to rounding; the imaginary part is made exactly
        # antisymmetric, which keeps the diagonal real.
        offsets, C = blocks
        theta = 2 * np.pi * (offsets * k % self.nphi) / self.nphi
        A = np.tensordot(np.cos(theta), C, 1)
        if self.multiplicity(k) == 2:
            S = np.tensordot(np.sin(theta), C, 1)
            A = A + 0.5j * (S - S.T)
        return A

    def pencil(self, k):
        """Dense Hermitian (B_k, Mm_k) of mode k."""
        return self._mode_sum(self._B, k), self._mode_sum(self._Mm, k)

    def lift(self, k, U):
        """Real nodal vectors of mode-k eigenvectors U (Mm_k-orthonormal).

        Returns Mm-orthonormal columns: one per column of U for a real
        mode, the real and imaginary parts in turn for a complex one.
        """
        j = np.arange(self.nphi)
        if self.multiplicity(k) == 1:
            phase = (-1.0) ** (j * (2 * k // self.nphi)) / np.sqrt(self.nphi)
            X = U[:, None, :] * phase[None, :, None]
        else:
            phase = (np.exp(2j * np.pi * (j * k % self.nphi) / self.nphi)
                     * np.sqrt(2.0 / self.nphi))
            Z = U[:, None, :] * phase[None, :, None]
            X = np.stack([Z.real, Z.imag], axis=-1)
        return X.reshape(self.nt * self.nphi, -1)

    @cached_property
    def spectrum(self):
        """Every eigenvalue of every mode, from one dense solve each."""
        values, vals, modes, cols = [], [], [], []
        for k in range(self.count):
            lam = sla.eigh(*self.pencil(k), eigvals_only=True)
            m = self.multiplicity(k)
            values.append(lam)
            vals.append(np.repeat(lam, m))
            modes.append(np.full(m * len(lam), k))
            cols.append(np.arange(m * len(lam)))
        vals = np.concatenate(vals)
        order = np.argsort(vals, kind="stable")
        return _ModeSpectrum(values, vals[order],
                             np.concatenate(modes)[order],
                             np.concatenate(cols)[order])

    def lowest(self, count, vectors=False):
        """(eigenvalues, modes, nodal vectors or None) of the lowest count.

        The eigenpairs of each mode pencil behind them pass the residual
        check (each mode's lowest ones once per operator set).
        """
        spec = self.spectrum
        vals = spec.eigenvalues[:count]
        modes = spec.modes[:count]
        cols = spec.columns[:count]
        X = np.empty((self.nt * self.nphi, count)) if vectors else None
        for k in np.unique(modes):
            sel = np.flatnonzero(modes == k)
            r = int(cols[sel].max()) // self.multiplicity(k) + 1
            if r <= self._checked[k] and not vectors:
                continue
            Bk, Mk = self.pencil(k)
            _, U = sla.eigh(Bk, Mk, subset_by_index=[0, r - 1])
            _residual_check(Bk, Mk, spec.values[k][:r], U)
            self._checked[k] = max(self._checked[k], r)
            if vectors:
                X[:, sel] = self.lift(k, U)[:, cols[sel]]
        return vals, modes, X


def lowest_eigs(ops, count, zero_tol=0.05, vectors=False):
    """The `count` algebraically smallest eigenpairs of (K-W, Mm).

    On a phi-shift-invariant chart grid the values come from the mode
    pencils (``PhiModes``).  Otherwise a dense solver runs below
    _DENSE_LIMIT unknowns and shift-invert Lanczos above it, with the
    shift placed below the spectrum (the pencil is bounded below by
    -q_max).
    """
    size = ops.size
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if count > size:
        raise InvalidParameterError(
            f"count {count} exceeds system size {size}")
    B = ops.B
    modes = None
    if ops.phi_modes is not None:
        path = "phi-modes"
        vals, modes, vecs = ops.phi_modes.lowest(count, vectors)
    elif size <= _DENSE_LIMIT or count > size // 4:
        path = "dense"
        vals, vecs = sla.eigh(B.toarray(), ops.Mm.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        path = "shift-invert"
        sigma = -ops.q_max - 1.0
        try:
            vals, vecs = spla.eigsh(B, k=count, M=ops.Mm, sigma=sigma,
                                    which="LM")
        except Exception as exc:   # ARPACK breakdowns vary in type
            raise NumericalFailureError(
                f"shift-invert eigensolve failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if vecs is not None:
        _residual_check(B, ops.Mm, vals, vecs)
    index = int((vals < -zero_tol).sum())
    nullity = int((np.abs(vals) <= zero_tol).sum())
    saturated = bool(count < size and vals[-1] <= zero_tol)
    return EigenReport(eigenvalues=vals, index=index, nullity=nullity,
                       zero_tol=float(zero_tol), lambda1=float(vals[0]),
                       window_saturated=saturated, path=path, modes=modes,
                       vectors=vecs if vectors else None)


def inertia_below(ops, sigma):
    """Number of pencil eigenvalues strictly below the shift sigma.

    Computed from the signature of a symmetric factorization of
    K - W - sigma*Mm (Sylvester's law); if the shifted matrix is
    numerically singular the shift is jittered and retried.  On a
    phi-shift-invariant chart grid it sums the dense LDL^T signatures of
    the mode pencils, each with its multiplicity.  Otherwise small
    systems use a dense LDL^T and large ones a sparse elimination
    without pivoting, whose diagonal signs carry the same signature.
    """
    modes = ops.phi_modes
    jitter = 0.0
    for attempt in range(_SHIFT_RETRIES):
        if modes is not None:
            neg, ok = _mode_signature(modes, sigma + jitter)
        else:
            neg, ok = _nodal_signature(ops, sigma, jitter)
        if ok:
            return neg
        jitter = (10.0 ** attempt) * 1e-10
    raise ShiftRetryExhaustedError(
        f"shifted matrix stayed singular near sigma = {sigma}")


def _nodal_signature(ops, sigma, jitter):
    A = (ops.B - sigma * ops.Mm).tocsc()
    scale = max(np.abs(A.data).max(), 1.0)
    if jitter:
        A = (A - jitter * ops.Mm).tocsc()
    if ops.size <= _DENSE_LIMIT:
        _, D, _ = sla.ldl(A.toarray())
        return _signature_negatives(D, scale)
    return _sparse_signature(A, scale)


def _mode_signature(modes, shift):
    total = 0
    for k in range(modes.count):
        Bk, Mk = modes.pencil(k)
        A = Bk - shift * Mk
        _, D, _ = sla.ldl(A)
        neg, ok = _signature_negatives(D, max(np.abs(A).max(), 1.0))
        if not ok:
            return 0, False
        total += modes.multiplicity(k) * neg
    return total, True


def _sparse_signature(A, scale):
    """Negative-pivot count of an unpivoted sparse LDU factorization.

    With diagonal pivoting disabled the elimination of the symmetric
    matrix is an LDL^T in disguise, so the signs of the U diagonal give
    the inertia.  Tiny pivots mark the shift as unusable.
    """
    try:
        lu = spla.splu(A, diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return 0, False
    d = lu.U.diagonal()
    if np.abs(d).min() <= 1e-12 * scale:
        return 0, False
    # row scalings of the equilibrated system are positive and the
    # permutation is symmetric, so signs transfer directly
    return int((d < 0).sum()), True


def _signature_negatives(D, scale):
    """Count negative eigenvalues of the block-diagonal LDL^T factor.

    D is real symmetric or complex Hermitian.  Returns (count, reliable);
    reliable is False when a 1x1 pivot sits at roundoff level,
    signalling that sigma hit an eigenvalue.
    """
    n = D.shape[0]
    neg = 0
    i = 0
    tol = 1e-12 * scale
    while i < n:
        if i + 1 < n and abs(D[i + 1, i]) > tol:
            # 2x2 block: one positive and one negative eigenvalue when
            # the determinant is negative
            d1, d2 = D[i, i].real, D[i + 1, i + 1].real
            det = d1 * d2 - abs(D[i + 1, i]) ** 2
            if det < 0:
                neg += 1
            elif d1 + d2 < 0:
                neg += 2
            i += 2
        else:
            d = D[i, i].real
            if abs(d) <= tol:
                return 0, False
            if d < 0:
                neg += 1
            i += 1
    return neg, True


def first_eigfunction(ops):
    """Ground state of the pencil: (lambda1, nodal vector).

    The vector is normalized to unit Mm-norm with its global sign fixed
    so that the Mm-weighted mean is positive.  A sign change across
    nodes means the lowest eigenvalue was not resolved as simple.
    """
    report = lowest_eigs(ops, count=1, vectors=True)
    rho = report.vectors[:, 0]
    mnorm = float(np.sqrt(rho @ (ops.Mm @ rho)))
    rho = rho / mnorm
    mean = float(np.ones(ops.size) @ (ops.Mm @ rho))
    if mean < 0:
        rho = -rho
    if rho.min() <= 0.0:
        raise MultiplicityWarningError(
            "computed ground state changes sign; the lowest eigenvalue "
            "is not resolved as simple at this resolution")
    return report.lambda1, rho


def morse_index(ops, zero_tol=0.05, start=16):
    """Morse index via lowest_eigs, growing the window until it clears
    the negative part of the spectrum, cross-checked against inertia."""
    count = min(start, ops.size)
    while True:
        report = lowest_eigs(ops, count=count, zero_tol=zero_tol)
        if not report.window_saturated:
            break
        count = min(2 * count, ops.size)
    inertia = inertia_below(ops, -zero_tol)
    if inertia != report.index:
        raise NumericalFailureError(
            f"index mismatch: eigensolver {report.index}, "
            f"factorization {inertia}")
    return report.index, report
