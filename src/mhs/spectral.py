"""Generalized eigenvalue solves for the stability pencil (K - W, Mm).

Two independent counting paths are provided: shift-invert Lanczos (or a
dense solve on small systems) for the lowest eigenpairs, and the
signature of a symmetric indefinite factorization for inertia counts.
Every reported index is expected to agree across both.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import (InvalidParameterError, MultiplicityWarningError,
                     NumericalFailureError, ShiftRetryExhaustedError)

_DENSE_LIMIT = 2000
_RESIDUAL_TOL = 1e-8
_SHIFT_RETRIES = 6


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
    vectors: Optional[np.ndarray] = None   # columns, Mm-orthonormal

    def to_dict(self):
        return {"eigenvalues": self.eigenvalues.tolist(),
                "index": self.index, "nullity": self.nullity,
                "zero_tol": self.zero_tol, "lambda1": self.lambda1,
                "window_saturated": self.window_saturated}


def _residual_check(B, Mm, vals, vecs):
    for lam, x in zip(vals, vecs.T):
        r = B @ x - lam * (Mm @ x)
        xm = float(np.sqrt(x @ (Mm @ x)))
        if np.linalg.norm(r) > _RESIDUAL_TOL * max(xm, 1.0) * max(abs(lam), 1.0):
            raise NumericalFailureError(
                f"eigenpair residual {np.linalg.norm(r):.3e} exceeds "
                f"tolerance at eigenvalue {lam:.6g}")


def lowest_eigs(ops, count, zero_tol=0.05, vectors=False):
    """The `count` algebraically smallest eigenpairs of (K-W, Mm).

    Uses a dense solver below _DENSE_LIMIT unknowns and shift-invert
    Lanczos above it, with the shift placed below the spectrum (the
    pencil is bounded below by -q_max).
    """
    size = ops.size
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if count > size:
        raise InvalidParameterError(
            f"count {count} exceeds system size {size}")
    B = ops.B
    if size <= _DENSE_LIMIT or count > size // 4:
        vals, vecs = sla.eigh(B.toarray(), ops.Mm.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        sigma = -ops.q_max - 1.0
        try:
            vals, vecs = spla.eigsh(B, k=count, M=ops.Mm, sigma=sigma,
                                    which="LM")
        except Exception as exc:   # ARPACK breakdowns vary in type
            raise NumericalFailureError(
                f"shift-invert eigensolve failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    _residual_check(B, ops.Mm, vals, vecs)
    index = int((vals < -zero_tol).sum())
    nullity = int((np.abs(vals) <= zero_tol).sum())
    saturated = bool(count < size and vals[-1] <= zero_tol)
    return EigenReport(eigenvalues=vals, index=index, nullity=nullity,
                       zero_tol=float(zero_tol), lambda1=float(vals[0]),
                       window_saturated=saturated,
                       vectors=vecs if vectors else None)


def inertia_below(ops, sigma):
    """Number of pencil eigenvalues strictly below the shift sigma.

    Computed from the signature of a symmetric factorization of
    K - W - sigma*Mm (Sylvester's law); if the shifted matrix is
    numerically singular the shift is jittered and retried.  Small
    systems use a dense LDL^T; large ones a sparse elimination without
    pivoting, whose diagonal signs carry the same signature.
    """
    A0 = (ops.B - sigma * ops.Mm).tocsc()
    scale = max(np.abs(A0.data).max(), 1.0)
    jitter = 0.0
    for attempt in range(_SHIFT_RETRIES):
        A = (A0 - jitter * ops.Mm).tocsc() if jitter else A0
        if ops.size <= _DENSE_LIMIT:
            _, D, _ = sla.ldl(A.toarray())
            neg, ok = _signature_negatives(D, scale)
        else:
            neg, ok = _sparse_signature(A, scale)
        if ok:
            return neg
        jitter = (10.0 ** attempt) * 1e-10
    raise ShiftRetryExhaustedError(
        f"shifted matrix stayed singular near sigma = {sigma}")


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

    Returns (count, reliable); reliable is False when a 1x1 pivot sits
    at roundoff level, signalling that sigma hit an eigenvalue.
    """
    n = D.shape[0]
    neg = 0
    i = 0
    tol = 1e-12 * scale
    while i < n:
        if i + 1 < n and abs(D[i + 1, i]) > tol:
            # 2x2 block: one positive and one negative eigenvalue when
            # the determinant is negative
            det = D[i, i] * D[i + 1, i + 1] - D[i + 1, i] * D[i, i + 1]
            if det < 0:
                neg += 1
            elif D[i, i] + D[i + 1, i + 1] < 0:
                neg += 2
            i += 2
        else:
            d = D[i, i]
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
