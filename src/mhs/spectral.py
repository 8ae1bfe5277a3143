"""Generalized eigenvalue solves for the stability pencil (K - W, Mm).

Every index rests on two independent paths: eigenpairs that pass a
residual check against the unfactored pencil, and Sylvester's law on
the pivot signs of an unpivoted symmetric factorization
(``_signature``), so a count never rests on the values it checks.  On
the unreduced pencil ``morse_index`` factors K - W + zero_tol Mm once,
in a nested-dissection order (``dissection_order``), for both: its
pivots count, and its solve drives shift-invert Lanczos
(``_shift_invert``).  Only a request for over a quarter of the spectrum
takes a dense solve.  On a set of chart lines, operators
block-circulant in phi that are stated and applied by their block rows
0 (``ChartLine``; every torus the package builds), no V x V matrix is
formed, and both paths run on small pencils per phi-Fourier mode
instead, swept, merged and counted by one set of routines
(``_ModeSweep``, ``_mode_signature``) for either split: the banded mode
pencils of a P1 set (``PhiModes``) or the Bloch phase pencils of a
spectral line (``TwistedLine``).  There ``morse_index`` counts at both
ends of the zero window in one sweep and then solves exactly the
counted window, so its nullity is certified too.  A line forms no
nodal operator or vector: its states are cell vectors of its pencils.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (InvalidParameterError, MultiplicityWarningError,
                     NumericalFailureError, ShiftRetryExhaustedError)

_RESIDUAL_TOL = 1e-8
_SHIFT_RETRIES = 6
_SHIFT_TOL = 1e-12   # phi-shift invariance, relative to max |entry|
_MORSE_WINDOW = 16   # first eigenvalue window of morse_index
_DISSECTION_LEAF = 16   # largest part that dissection_order leaves whole
_CERTIFY_GAP = 1e-9     # relative margin of a mode certificate above tau
_MULTIPLE_GAP = 1e-8    # lambda2 - lambda1 of a numerically multiple
                        # ground level, relative to max(|lambda1|, 1)
_SIGN_TOL = 1e-12       # a ground-state value below -_SIGN_TOL max |rho|
                        # is a sign change, not roundoff


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
    # phi-modes the operator set has solved by a dense eigensolve or in
    # closed form, sorted; every other mode was excluded by a certificate
    solved_modes: Optional[tuple] = None

    def to_dict(self):
        return {"eigenvalues": self.eigenvalues.tolist(),
                "index": self.index, "nullity": self.nullity,
                "zero_tol": self.zero_tol, "lambda1": self.lambda1,
                "window_saturated": self.window_saturated,
                "path": self.path,
                "modes": None if self.modes is None else self.modes.tolist(),
                "solved_modes": (None if self.solved_modes is None
                                 else list(self.solved_modes))}


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


class ChartLine(spla.LinearOperator):
    """A block-circulant operator on the nodes of an (nt, nphi) chart
    grid, stated by its block row 0 and applied by it.

    Node (i, j) is i*nphi + j, and ``row`` is the sparse nt x nt*nphi
    block row 0: entry (i, l*nphi + s) is C_s[i, l], the weight of node
    (l, j + s) in node row (i, j) for every j.  A block-circulant matrix
    is given by its first block row (Davis, Circulant Matrices, 1979),
    so no V x V matrix is formed: products apply the average of the
    line and its transpose, whose block at offset s is
    (C_s + C_-s^T) / 2 (``_blocks``), one nt x nt block per offset to X
    moved s steps in phi.  Chart lines combine linearly as their rows
    do, and with nothing else.
    """

    def __init__(self, row, nphi):
        super().__init__(float, (row.shape[1],) * 2)
        self.row, self.nphi = row, nphi

    @functools.cached_property
    def _blocks(self):
        """(offset s, CSR block (C_s + C_-s^T) / 2) of every offset of
        the symmetrized row: the transpose holds C_s[i, l] at (l, i) of
        offset -s."""
        nt, nphi = self.row.shape[0], self.nphi
        R = self.row.tocoo()
        l, s = np.divmod(R.col, nphi)
        rows, cols, s = np.r_[R.row, l], np.r_[l, R.row], np.r_[s, -s % nphi]
        data = np.r_[R.data, R.data] * 0.5
        return [(o, sp.csr_matrix((data[s == o], (rows[s == o],
                                                  cols[s == o])),
                                  shape=(nt, nt)))
                for o in np.unique(s)]

    @property
    def nnz(self):
        """Stored entries of the V x V matrix of the line, which is never
        formed, where its pattern is symmetric as every assembled one is."""
        return self.row.nnz * self.nphi

    def _matmat(self, X):
        nt = self.row.shape[0]
        Y = X.reshape(nt, self.nphi, -1)
        out = sum(C @ np.roll(Y, -s, axis=1).reshape(nt, -1)
                  for s, C in self._blocks)
        return out.reshape(X.shape)

    def __add__(self, x):
        if not isinstance(x, ChartLine):
            raise TypeError("a chart line combines only with chart lines")
        return ChartLine(self.row + x.row, self.nphi)

    def __sub__(self, x):
        return self + -1.0 * x

    def __mul__(self, x):
        if np.isscalar(x):
            return ChartLine(x * self.row, self.nphi)
        return super().__mul__(x)

    __rmul__ = __mul__


def _offset_entries(row, nphi):
    """(offsets s, and for every stored row[i, (l, s)] its offset index,
    i, l and value): the blocks C_s[i, l] of block row 0."""
    R = row.tocoo()
    l, s = np.divmod(R.col, nphi)
    offsets = np.unique(s)
    return offsets, np.searchsorted(offsets, s), R.row, l, R.data


def _unband(ab):
    """The Hermitian matrix of lower band storage ab as (values, (rows,
    columns)): entry (d, Q) at (Q + d, Q) and, off the diagonal, its
    conjugate at (Q, Q + d)."""
    n = ab.shape[1]
    d, Q = np.indices(ab.shape).reshape(2, -1)
    inside = Q + d < n
    d, Q = d[inside], Q[inside]
    v, off = ab[d, Q], d > 0
    return np.r_[v, v[off].conj()], (np.r_[Q + d, Q[off]],
                                     np.r_[Q, (Q + d)[off]])


def _interleaved(n):
    """The order 0, n-1, 1, n-2, ...: indices a cyclic distance w apart
    land at most 2w positions apart."""
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return order


def _first_unshifted_row(row, nt, nphi):
    """The first node row i of block row 0 on an (nt, nphi) grid that is
    not row 0 moved i steps in theta, or nt where there is none.  Row i
    is row 0 moved when its entry (l + i, s) is row 0's (l, s), with
    the same pattern and every value within _SHIFT_TOL of the largest
    entry.  The rows before the first of another width, which ends the
    check, are moved back to row 0, sorted by key l*nphi + s and
    compared with it in one pass."""
    R = row.tocsr()
    ptr, width = R.indptr, R.indptr[1]
    tol = _SHIFT_TOL * np.abs(R.data).max(initial=0.0)
    rows = int(np.argmax(np.r_[np.diff(ptr) != width, True]))
    l, s = np.divmod(R.indices[:ptr[rows]].reshape(rows, width), nphi)
    key = (l - np.arange(rows)[:, None]) % nt * nphi + s
    o = np.argsort(key, axis=1)
    key = np.take_along_axis(key, o, axis=1)
    val = np.take_along_axis(R.data[:ptr[rows]].reshape(rows, width), o,
                             axis=1)
    same = ((key == key[0]).all(axis=1)
            & (np.abs(val - val[0]) <= tol).all(axis=1))
    return int(np.argmin(np.r_[same, False]))


def _theta_symbols(nt, nphi, B_row, Mm_row):
    """(b, m): the real parts of the 2-D Fourier sums of node row 0 of
    block rows 0 of B and Mm, as (nt, nphi // 2 + 1) arrays over
    (theta-mode a, phi-mode k), where both block rows are circulant in
    theta too (``_first_unshifted_row``) and m is positive; else None.
    Only the real part counts, since a chart line applies its
    symmetric part."""
    symbols = []
    for row in (B_row, Mm_row):
        if _first_unshifted_row(row, nt, nphi) < nt:
            return None
        R = row.tocsr()
        line = np.bincount(R.indices[:R.indptr[1]], R.data[:R.indptr[1]],
                           minlength=nt * nphi)
        symbols.append(np.fft.rfft2(line.reshape(nt, nphi)).real)
    return tuple(symbols) if symbols[1].min() > 0 else None


class _ModeSweep:
    """The sweep over the phi-modes k = 0 .. nphi // 2 of either split of
    a chart-grid pencil.  Modes k and -k are conjugate, so a mode
    0 < k < nphi/2 holds each value of the real pencil twice.  A split
    states per mode k the certificate ``positive(k, shift, floor)`` that
    B_k - shift Mm_k is positive definite clear of roundoff at floor, the
    solve ``_solve(k)``, ascending values first, and the weighted shifted
    matrices whose signatures count it (``shifted``).  A split with nodal
    vectors also states the real vectors ``_vectors(k, r)`` of the
    leading r pairs of mode k and their residual check ``_check(k, r)``.
    """

    # mode k -> its solve, and the largest tau at which each mode was
    # certified above tau + gap
    solved = functools.cached_property(lambda self: {})
    certified = functools.cached_property(
        lambda self: np.full(self.count, -np.inf))

    @property
    def count(self):
        """Number of distinct modes k = 0 .. nphi // 2."""
        return self.nphi // 2 + 1

    def multiplicity(self, k):
        return 1 if (2 * k) % self.nphi == 0 else 2

    def _check(self, k, r):
        """A split that checks each solve whole needs no further check."""

    def _excludes(self, k, shift):
        """Whether every eigenvalue of mode k exceeds shift."""
        return self.positive(k, shift)

    def _merged(self):
        """(eigenvalues, modes, columns in _vectors(k, r)) of the solved
        modes, ascending, complex modes twice.  Values within a relative
        _CERTIFY_GAP are ties, listed by mode rather than by rounding; no
        certificate excludes a mode that close to tau, so a tie at the
        end of a window is solved whole."""
        if not self.solved:
            return np.empty(0), np.empty(0, int), np.empty(0, int)
        vals, modes, cols = [], [], []
        for k in sorted(self.solved):
            lam = self.solved[k][0]
            m = self.multiplicity(k)
            vals.append(np.repeat(lam, m))
            modes.append(np.full(m * len(lam), k))
            cols.append(np.arange(m * len(lam)))
        vals, modes, cols = map(np.concatenate, (vals, modes, cols))
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        tie = np.diff(vals) <= _CERTIFY_GAP * np.maximum(abs(vals[1:]), 1)
        order = order[np.lexsort((cols[order], modes[order],
                                  np.cumsum(np.r_[True, ~tie])))]
        return vals, modes[order], cols[order]

    def lowest(self, count, vectors=False):
        """(eigenvalues, modes, nodal vectors or None) of the lowest count.

        tau is the count-th smallest value of the modes solved so far
        (infinite while they have fewer).  One sweep in order of k, with
        no monotonicity in k assumed, passes over a mode certified at tau
        or above, certifies one that ``_excludes`` puts above tau + gap
        (a relative _CERTIFY_GAP, so that a tie with tau is not left out
        on rounding), and solves any other, recomputing tau.  The
        eigenpairs of each mode behind the answer pass the residual check.
        """
        vals = self._merged()[0]
        for k in range(self.count):
            # solving a mode can only lower tau, so one pass suffices
            tau = vals[count - 1] if len(vals) >= count else np.inf
            if k in self.solved or self.certified[k] >= tau:
                continue
            if tau < np.inf and self._excludes(
                    k, tau + _CERTIFY_GAP * max(abs(tau), 1.0)):
                self.certified[k] = tau
                continue
            self.solved[k] = self._solve(k)
            vals = self._merged()[0]
        vals, modes, cols = (a[:count] for a in self._merged())
        X = np.empty((self.nt * self.nphi, count)) if vectors else None
        for k in np.unique(modes):
            sel = np.flatnonzero(modes == k)
            r = int(cols[sel].max()) // self.multiplicity(k) + 1
            self._check(k, r)
            if vectors:
                X[:, sel] = self._vectors(k, r)[:, cols[sel]]
        return vals, modes, X


class PhiModes(_ModeSweep):
    """The pencil of an (nt, nphi) chart grid split over phi-Fourier modes.

    Node (i, j) is i*nphi + j.  Where B and Mm are invariant under the
    shift j -> j + 1 they are block-circulant, with nt x nt blocks C_s at
    phi-offset s, and x(i, j) = u(i) e^(2 pi i j k / nphi) is an
    eigenvector exactly when u solves the mode pencil
    (sum_s C_s^B w^(sk), sum_s C_s^M w^(sk)), w = e^(2 pi i / nphi).
    A mode pencil is stored only as per-offset band columns in the
    interleaved order 0, nt-1, 1, nt-2, ..., bandwidth kd from the
    pattern (2 for P1), complex only where a block is not symmetric.  It
    is solved by one dense eigensolve, or certified by a banded Cholesky
    factorization (``positive``).  Where every node row is row 0 moved in
    theta, each C_s is circulant too, and every mode is solved and
    certified in closed form (``symbols``); its counts still read the
    band pivots, and its pairs still pass the residual check on the band.
    """

    def __init__(self, nt, nphi, B_row, Mm_row):
        self.nt, self.nphi = nt, nphi
        # interleaved position of each node row i
        self._position = np.argsort(_interleaved(nt))
        entries = _offset_entries(B_row, nphi), _offset_entries(Mm_row, nphi)
        self.kd = int(max(np.abs(self._position[i] - self._position[l])
                          .max(initial=0) for _, _, i, l, _ in entries))
        # (offsets, even and odd band columns) of B and of Mm
        self._B, self._Mm = (self._band_columns(*e) for e in entries)
        # the closed form of every mode, where the pencil is circulant in
        # theta too, else None
        self.symbols = _theta_symbols(nt, nphi, B_row, Mm_row)
        # leading pairs of each solved mode that passed the residual check
        self._checked = np.zeros(self.count, dtype=int)

    def _band_columns(self, offsets, o, i, l, c):
        """(offsets, even, odd): per-offset lower bands of the mode sum,
        one column per offset s, row d*nt + Q for the interleaved
        positions (P, Q) = (Q + d, Q) of an entry c = C_s[i, l].  The
        symmetric part is C_s read from the lower triangle in node order,
        and the antisymmetric part is (C_s[P, Q] - C_s[Q, P]) / 2, which
        leaves the diagonal real."""
        P, Q = self._position[i], self._position[l]
        rows = np.abs(P - Q) * self.nt + np.minimum(P, Q)
        shape = ((self.kd + 1) * self.nt, len(offsets))
        low = i >= l
        even = sp.csr_matrix((c[low], (rows[low], o[low])), shape=shape)
        # the entries (i, l) and (l, i) share a row and are summed
        odd = sp.csr_matrix((0.5 * np.sign(P - Q) * c, (rows, o)),
                            shape=shape)
        odd.eliminate_zeros()
        return offsets, even, odd

    def _band_sum(self, operator, k):
        offsets, even, odd = operator
        theta = 2 * np.pi * (offsets * k % self.nphi) / self.nphi
        ab = even @ np.cos(theta)
        if self.multiplicity(k) == 2 and odd.nnz:
            ab = ab + 1j * (odd @ np.sin(theta))
        return ab.reshape(self.kd + 1, self.nt)

    def _unpacked(self, k):
        """Sparse Hermitian (B_k, Mm_k) of mode k in the interleaved
        order, unpacked from their bands."""
        return tuple(sp.csr_matrix(_unband(self._band_sum(operator, k)),
                                   shape=(self.nt,) * 2)
                     for operator in (self._B, self._Mm))

    def pencil(self, k):
        """Dense Hermitian (B_k, Mm_k) of mode k in the interleaved order."""
        return tuple(A.toarray() for A in self._unpacked(k))

    def band(self, k, shift):
        """B_k - shift Mm_k in LAPACK lower band storage in the
        interleaved order: entry (d, Q) is the matrix entry at positions
        (Q + d, Q)."""
        return (self._band_sum(self._B, k)
                - shift * self._band_sum(self._Mm, k))

    def shifted(self, k, shift):
        """[(1, B_k - shift Mm_k)], unpacked from its band."""
        return [(1, sp.csc_matrix(_unband(self.band(k, shift))))]

    def positive(self, k, shift, floor=0.0):
        """Whether the banded Cholesky factorization (?pbtrf) of
        B_k - shift Mm_k succeeds clear of roundoff
        (``_clear_of_roundoff``) at floor times max(|entry|, 1)."""
        ab = self.band(k, shift)
        level = floor * max(np.abs(ab).max(), 1.0)
        pbtrf, pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (ab,))
        L, info = pbtrf(ab, lower=1, overwrite_ab=1)
        return info == 0 and _clear_of_roundoff(
            L[0].real ** 2, level, lambda b: pbtrs(L, b, lower=1)[0])

    def _excludes(self, k, shift):
        """Whether every eigenvalue of mode k exceeds shift: by its
        closed form, every b - shift m positive, else by the banded
        Cholesky factorization of ``positive``."""
        if self.symbols is None:
            return self.positive(k, shift)
        b, m = (s[:, k] for s in self.symbols)
        return bool(np.all(b - shift * m > 0))

    def _solve(self, k):
        """(ascending eigenvalues, Mm_k-orthonormal vectors in the
        interleaved order) of mode k: a dense eigensolve of its pencil,
        or in closed form the values b / m of theta-mode a with the
        Fourier columns e^(2 pi i a i / nt), normalized to 1 / sqrt(nt m);
        on a real mode the pair a, -a is one value with a cosine and a
        sine column."""
        if self.symbols is None:
            return sla.eigh(*self.pencil(k))
        nt, half = self.nt, self.nt // 2 + 1
        b, m = (s[:, k] for s in self.symbols)
        i = _interleaved(nt)[:, None]   # node row of each position
        if self.multiplicity(k) == 2:
            a = np.arange(nt)
            U = np.exp(2j * np.pi * (i * a % nt) / nt) / np.sqrt(nt * m)
        else:   # cosines of a = 0 .. nt/2, then sines of a = 1 .. (nt-1)/2
            a = np.r_[np.arange(half), np.arange(1, nt - half + 1)]
            angle = 2 * np.pi * (i * a % nt) / nt
            U = (np.where(np.arange(nt) < half, np.cos(angle), np.sin(angle))
                 * np.sqrt(np.where(2 * a % nt, 2.0, 1.0) / (nt * m[a])))
        lam = b[a] / m[a]
        order = np.argsort(lam, kind="stable")
        return lam[order], U[:, order]

    def _check(self, k, r):
        if r > self._checked[k]:
            lam, U = self.solved[k]
            _residual_check(*self._unpacked(k), lam[:r], U[:, :r])
            self._checked[k] = r

    def _vectors(self, k, r):
        """Mm-orthonormal real nodal vectors of the leading r eigenvectors
        of mode k: one per eigenvector for a real mode, the real and
        imaginary parts in turn for a complex one."""
        U = self.solved[k][1][self._position, :r]
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


@dataclass(frozen=True)
class TwistedLine(_ModeSweep):
    """The Fourier pseudo-spectral set of a chart line, split over
    phi-modes and Bloch phases.

    ``line`` holds w, w / g_11, w / g_22 and w q at the nt nodes of the
    line phi = 0 of an (nt, nphi) grid of chart lengths (L_theta, L_phi),
    w = dt dphi sqrt(g).  They repeat every m = nt / P nodes, P the
    ``phases`` (gcd(nt, q) on a (p, q) profile), so by Floquet-Bloch
    theory mode k splits into P problems
    u(x + m nodes) = e^(2 pi i r / P) u(x), |r| <= (P-1)/2: the m x m
    Hermitian pencils (r, k) = (D_r^H diag(w / g_11) D_r
    + kappa_k^2 diag(w / g_22) - diag(w q), diag(w)), with D_r the
    Fourier derivative on the frequencies j + r / P, |j| <= (m-1)/2, and
    kappa_k = 2 pi k / L_phi.  With nt odd, so P odd, the frequencies
    j P + r are those of the whole line, so the phase spectra make up the
    2-D mode pencil; phase P/2 of an even P would have no window
    symmetric about zero.  Phase -r is the conjugate of r: only r >= 0 is
    formed, and r > 0 counts twice.  As D_r^H diag(w / g_11) D_r >= 0,
    mode k has nothing below sigma where kappa_k^2 w / g_22 - w q
    - sigma w > 0 at every node (``positive``); where that fails, a
    Cholesky factorization of each phase pencil may still exclude sigma
    (``_excludes``).  No nodal operator or vector is formed: ``frame``,
    x and nu at the nodes, feeds ``paperlab.line_forms``.
    """

    line: np.ndarray   # (4, nt)
    lengths: tuple     # (L_theta, L_phi) of the chart
    n: int
    grid_shape: tuple  # (nt, nphi)
    phases: int        # P, odd and dividing nt
    frame: np.ndarray  # (2, nt, 4): x and nu at the nodes

    nt = property(lambda self: self.grid_shape[0])
    nphi = property(lambda self: self.grid_shape[1])
    size = property(lambda self: self.nt * self.nphi)
    phi_modes = property(lambda self: self)
    m = property(lambda self: self.nt // self.phases)

    @functools.cached_property
    def _stiffness(self):
        """D_r^H diag(w / g_11) D_r of the phases r = 0 .. P // 2, where
        D_r[a, b] = (pi P / L_theta)(-1)^d csc(pi d / m) e^(2 pi i r d / nt)
        at d = a - b != 0 and 2 pi i r / L_theta at d = 0 (Trefethen,
        Spectral Methods in MATLAB, ch. 3, twisted)."""
        m, lt = self.m, self.lengths[0]
        d = np.arange(m)[:, None] - np.arange(m)
        D = ((np.pi * self.phases / lt) * (-1.0) ** d
             / np.where(d, np.sin(np.pi * d / m), np.inf))
        stiffness = []
        for r in range(self.phases // 2 + 1):
            Dr = D if r == 0 else (D * np.exp(2j * np.pi * r * d / self.nt)
                                   + np.eye(m) * (2j * np.pi * r / lt))
            K = Dr.conj().T @ (self.line[1, :m, None] * Dr)
            stiffness.append((K + K.conj().T) * 0.5)
        return stiffness

    def _diagonal(self, k):
        """kappa_k^2 w / g_22 - w q on one period."""
        _, _, a22, wq = self.line[:, :self.m]
        return (2 * np.pi * k / self.lengths[1]) ** 2 * a22 - wq

    def pencil(self, r, k):
        """Dense Hermitian (B, Mm) of phase r and mode k."""
        K = self._stiffness[abs(r)]
        return ((K.conj() if r < 0 else K) + np.diag(self._diagonal(k)),
                np.diag(self.line[0, :self.m]))

    def positive(self, k, shift, floor=0.0):
        """Whether kappa_k^2 w / g_22 - w q - shift w exceeds floor times
        max(|entry|, 1) at every node."""
        d = self._diagonal(k) - shift * self.line[0, :self.m]
        return bool(d.min() > floor * max(np.abs(d).max(), 1.0))

    def _shifted_phases(self, k, shift):
        """Dense pencils (r, k) shifted, B - shift Mm, of the phases
        r >= 0."""
        d = np.diag(self._diagonal(k) - shift * self.line[0, :self.m])
        return [K + d for K in self._stiffness]

    def shifted(self, k, shift):
        """(weight, pencil (r, k) shifted) of the phases r >= 0."""
        return [(2 if r else 1, sp.csc_matrix(A))
                for r, A in enumerate(self._shifted_phases(k, shift))]

    def _excludes(self, k, shift):
        """Whether every eigenvalue of mode k exceeds shift: by the
        pointwise bound of ``positive``, else by a Cholesky factorization
        (?potrf) of every shifted phase pencil clear of roundoff
        (``_clear_of_roundoff``) at 1e-12 of max(|entry|, 1)."""
        if self.positive(k, shift):
            return True
        for A in self._shifted_phases(k, shift):
            level = 1e-12 * max(np.abs(A).max(), 1.0)
            potrf, potrs = sla.get_lapack_funcs(("potrf", "potrs"), (A,))
            L, info = potrf(A, lower=1, overwrite_a=1)
            if info or not _clear_of_roundoff(
                    np.diagonal(L).real ** 2, level,
                    lambda b: potrs(L, b, lower=1)[0]):
                return False
        return True

    def _solve(self, k):
        """(ascending values, and the ascending values and
        diag(w)-orthonormal vectors of each phase r >= 0) of mode k, the
        values of r > 0 twice, for r and -r."""
        pairs = [self._phase(r, k) for r in range(self.phases // 2 + 1)]
        return np.sort(np.concatenate(
            [pairs[0][0]] + 2 * [lam for lam, _ in pairs[1:]])), pairs

    def _phase(self, r, k):
        """(ascending values, diag(w)-orthonormal vectors) of pencil
        (r, k), every pair residual-checked."""
        B, Mm = self.pencil(r, k)
        lam, U = sla.eigh(B, Mm)
        _residual_check(B, Mm, lam, U)
        return lam, U


def _runs(keys):
    """Start of each run of equal entries in keys, and the rank of every
    entry within its run."""
    heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    rank = np.arange(len(keys)) - np.repeat(heads,
                                            np.diff(np.r_[heads, len(keys)]))
    return heads, rank


def dissection_order(A):
    """Nested-dissection elimination order of the pattern of symmetric A.

    Returns a permutation p of range(n) such that A[p][:, p] eliminates
    every part before the separator that split it off (George, SIAM J.
    Numer. Anal. 10, 1973).  Each part is a connected component of the
    graph of A; one of at most _DISSECTION_LEAF vertices stays whole, in
    vertex order.  A larger one is cut at the median breadth-first level
    from a pseudo-peripheral vertex (the farthest vertex of a first
    sweep), and that level is its separator.  Every part owns a block of
    positions; its separator takes the last ones and the two sides the
    rest.  All parts of one dissection depth are split together.
    """
    import scipy.sparse.csgraph as csgraph
    n = A.shape[0]
    R = sp.coo_matrix(A)
    rows, cols = np.r_[R.row, R.col], np.r_[R.col, R.row]
    G = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    rows = np.repeat(np.arange(n), np.diff(G.indptr))
    rows, cols = rows[rows != G.indices], G.indices[rows != G.indices]
    order = np.empty(n, dtype=np.intp)
    start = np.zeros(n, dtype=np.intp)   # first position of the part
    active = np.ones(n, dtype=bool)      # not yet placed in order
    while True:
        keep = active[rows] & active[cols]
        rows, cols = rows[keep], cols[keep]
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
        graph = sp.csr_matrix((np.ones(len(cols)), cols, indptr),
                              shape=(n, n))
        count, label = csgraph.connected_components(graph, directed=False)
        # active vertices grouped by component, each in vertex order
        v = np.flatnonzero(active)
        v = v[np.argsort(label[v], kind="stable")]
        comp = label[v]
        heads, rank = _runs(comp)
        first, size = v[heads], np.diff(np.r_[heads, len(v)])
        # the components of one part split its block in the order of
        # their first vertices
        part = start[first]
        o = np.lexsort((first, part))
        before = np.cumsum(size[o]) - size[o]
        new_part = np.r_[True, part[o][1:] != part[o][:-1]]
        offset = np.zeros(count, dtype=np.intp)
        offset[comp[heads][o]] = (part[o] + before
                                  - before[new_part][np.cumsum(new_part) - 1])
        csize = np.zeros(count, dtype=np.intp)
        csize[comp[heads]] = size
        leaf = csize[comp] <= _DISSECTION_LEAF
        order[offset[comp[leaf]] + rank[leaf]] = v[leaf]
        active[v[leaf]] = False
        big = size > _DISSECTION_LEAF
        if not big.any():
            return order
        v, comp = v[~leaf], comp[~leaf]
        heads, _ = _runs(comp)
        run = np.repeat(np.arange(len(heads)), np.diff(np.r_[heads, len(v)]))
        level = _levels(graph, first[big])[v]
        far = np.where(level == np.maximum.reduceat(level, heads)[run],
                       np.arange(len(v)), len(v))
        level = _levels(graph, v[np.minimum.reduceat(far, heads)])[v]
        # median level of each component: the first whose cumulative
        # count passes half the component
        width = level.max() + 1
        hist = np.bincount(run * width + level, minlength=len(heads) * width)
        median = np.argmax(np.cumsum(hist.reshape(-1, width), axis=1)
                           > (size[big] // 2)[:, None], axis=1)[run]
        left, cut = level < median, level == median
        right = level > median
        n_left = np.bincount(comp[left], minlength=count)
        n_cut = np.bincount(comp[cut], minlength=count)
        start[v[left]] = offset[comp[left]]
        start[v[right]] = offset[comp[right]] + n_left[comp[right]]
        c = comp[cut]
        order[offset[c] + csize[c] - n_cut[c] + _runs(c)[1]] = v[cut]
        active[v[cut]] = False


def _levels(graph, sources):
    """Breadth-first level of every vertex of the symmetric graph from
    the nearest of sources, -1 where none reaches: one O(E) sweep from a
    virtual vertex joined to every source."""
    import scipy.sparse.csgraph as csgraph
    n, m = graph.shape[0], graph.indptr[-1] + len(sources)
    joined = sp.csr_matrix((np.ones(m), np.r_[graph.indices, sources],
                            np.r_[graph.indptr, m]), shape=(n + 1, n + 1))
    order, parent = csgraph.breadth_first_order(
        joined, n, directed=True, return_predecessors=True)
    # in breadth-first order the parents' positions never decrease, so
    # level d + 1 ends after the last vertex whose parent is in level d
    position = np.empty(n + 1, dtype=np.intp)
    position[order] = np.arange(len(order))
    parent = position[parent[order[1:]]]
    starts = [0, 1]
    while starts[-1] < len(order):
        starts.append(1 + int(np.searchsorted(parent, starts[-1])))
    level = np.full(n + 1, -1, dtype=np.intp)
    level[order] = np.repeat(np.arange(-1, len(starts) - 2), np.diff(starts))
    return level[:n]


def _ordered_factor(A, order):
    """Unpivoted sparse LU of A[order][:, order]: (pivots, solve).

    Every pivot is taken on the diagonal, so for symmetric or Hermitian
    A this is an LDL^H in disguise and the pivots are D.  solve(b) solves
    A x = b in the numbering of A; it keeps the factor, not A.  None when
    a zero pivot stops the elimination.
    """
    try:
        lu = spla.splu(A[order][:, order].tocsc(), permc_spec="NATURAL",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:   # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):   # off-diagonal pivot
        return None
    dtype = A.dtype

    def solve(b):
        x = np.empty(len(b), dtype=np.result_type(b, dtype))
        x[order] = lu.solve(b[order])
        return x
    return lu.U.diagonal(), solve


def _report(ops, vals, vecs, zero_tol, path, vectors=False, modes=None,
            solved=None):
    """EigenReport of the window vals, after the residual check of its
    pairs against the unfactored B and Mm."""
    if vecs is not None:
        _residual_check(ops.B, ops.Mm, vals, vecs)
    index = int((vals < -zero_tol).sum())
    nullity = int((np.abs(vals) <= zero_tol).sum())
    saturated = bool(len(vals) < ops.size and vals[-1] <= zero_tol)
    return EigenReport(eigenvalues=vals, index=index, nullity=nullity,
                       zero_tol=float(zero_tol), lambda1=float(vals[0]),
                       window_saturated=saturated, path=path, modes=modes,
                       vectors=vecs if vectors else None, solved_modes=solved)


def lowest_eigs(ops, count, zero_tol=0.05, vectors=False):
    """The `count` algebraically smallest eigenpairs of (K-W, Mm).

    On a chart grid the values come from the modes of its split
    (``phi_modes``) that no certificate excludes: the banded pencils of
    a P1 set (``PhiModes``), certified by banded Cholesky or in closed
    form, or the Bloch phase pencils of a spectral line (``TwistedLine``),
    certified where kappa_k^2 / g_22 - q exceeds tau at every node or
    each shifted phase pencil has a Cholesky factor.  Otherwise a
    request for over a quarter of the spectrum takes a dense solve, and
    any other shift-invert Lanczos
    (``_shift_invert``) with the shift -q_max - 1 below the spectrum: the
    pencil is bounded below by -q_max, so the factor there must have no
    negative pivot.
    """
    size = ops.size
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if not 0.0 < zero_tol < np.inf:
        raise InvalidParameterError(
            f"zero_tol must be finite and > 0, got {zero_tol}")
    if vectors and isinstance(ops, TwistedLine):
        raise InvalidParameterError("a twisted line has no nodal vectors")
    if count > size:
        raise InvalidParameterError(
            f"count {count} exceeds system size {size}")
    modes = solved = None
    if ops.phi_modes is not None:
        path = "phi-modes"
        vals, modes, vecs = ops.phi_modes.lowest(count, vectors)
        solved = tuple(sorted(ops.phi_modes.solved))
    elif count > size // 4:
        path = "dense"
        vals, vecs = sla.eigh(ops.B.toarray(), ops.Mm.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        path = "shift-invert"
        _, vals, vecs = _shift_invert(ops, -ops.q_max - 1.0, count)
    return _report(ops, vals, vecs, zero_tol, path, vectors, modes, solved)


def _shift_invert(ops, sigma, count, clear=None):
    """Shift-invert Lanczos on one factorization of K - W - sigma Mm.

    The unpivoted factor in ``ops.elimination_order`` does two jobs, as
    in spectrum slicing (Ericsson & Ruhe, Math. Comp. 35, 1980; Grimes,
    Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 1994): its pivot
    signs give c, the number of eigenvalues below the shift
    (``_signature``, jittered and retried as in ``inertia_below``), and
    its solve is the Lanczos operator, whose window holds the eigenvalues
    nearest the shift.  With clear None the shift must lie below the
    spectrum (c = 0), and the window of count values is the lowest.
    Otherwise the window doubles from count until it holds exactly c
    values below the shift and its top exceeds clear, so that it is the
    lowest; more than c values below the shift raise at once, and a
    window that would pass a quarter of the spectrum is left to the
    dense solve (values None).  The start vector is seeded, so repeated
    runs agree bitwise.

    Returns (c, ascending values, vectors).
    """
    (c, solve), shift = _retrying(functools.partial(_nodal_signature, ops),
                                  sigma)
    if clear is None and c:
        raise NumericalFailureError(
            f"shift-invert matrix at sigma = {sigma:.6g} is not "
            "positive definite; q_max understates the potential")
    size = ops.size
    solve = spla.LinearOperator((size, size), matvec=solve, dtype=float)
    # random, not ones or the Mm diagonal: a start vector invariant
    # under the mesh's symmetries misses the other modes
    start = np.random.default_rng(0).standard_normal(size)
    while True:
        try:
            vals, vecs = spla.eigsh(ops.B, k=count, M=ops.Mm, sigma=shift,
                                    which="LM", v0=start, OPinv=solve)
        except Exception as exc:   # ARPACK breakdowns vary in type
            raise NumericalFailureError(
                f"shift-invert eigensolve failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        found = int((vals < shift).sum())
        if found > c:
            raise NumericalFailureError(
                f"index mismatch: eigensolver {found}, factorization {c}")
        if clear is None or (found == c and vals[-1] > clear):
            return c, vals, vecs
        count *= 2
        if count > size // 4:
            return c, None, None


def inertia_below(ops, sigma):
    """Number of pencil eigenvalues strictly below the shift sigma.

    Computed from the pivot signs of an unpivoted factorization of
    K - W - sigma*Mm (Sylvester's law, ``_signature``); if the shifted
    matrix is numerically singular the shift is jittered and retried.
    On a chart grid it sums the signatures of the mode pencils of its
    split (``_mode_signature``), else it factors the unreduced pencil in
    ``ops.elimination_order`` (``_nodal_signature``).
    """
    if ops.phi_modes is not None:
        return _retrying(functools.partial(_mode_signature, ops.phi_modes),
                         sigma)[0]
    (neg, _), _ = _retrying(functools.partial(_nodal_signature, ops), sigma)
    return neg


def _retrying(signature, sigma):
    """(signature(shift), shift) at the first shift, sigma jittered
    upward, where the signature is not None: where the shifted matrix
    is not numerically singular.  sigma may be an array of shifts,
    jittered together."""
    jitter = 0.0
    for attempt in range(_SHIFT_RETRIES):
        shift = sigma + jitter
        result = signature(shift)
        if result is not None:
            return result, shift
        jitter = (10.0 ** attempt) * 1e-10
    raise ShiftRetryExhaustedError(
        f"shifted matrix stayed singular near sigma = {sigma}")


def _mode_signature(modes, shifts):
    """Sum of the mode pencils' signatures at a shift, with
    multiplicity, or a tuple of them for an array of shifts; None if a
    count is unreliable.  One sweep serves every shift: a mode certified
    positive at the largest, clear of roundoff (``positive``), adds no
    negatives, and any other the weighted signatures of its shifted
    matrices (``shifted``), each in its own order.
    """
    totals, top = [0] * np.size(shifts), np.max(shifts)
    for k in range(modes.count):
        if modes.positive(k, top, 1e-12):
            continue
        for i, shift in enumerate(np.ravel(shifts)):
            for weight, A in modes.shifted(k, shift):
                signature = _signature(A, np.arange(A.shape[0]))
                if signature is None:
                    return None
                totals[i] += modes.multiplicity(k) * weight * signature[0]
    return tuple(totals) if np.ndim(shifts) else totals[0]


def _nodal_signature(ops, shift):
    """_signature of the unreduced K - W - shift Mm in
    ``ops.elimination_order``; the shifted matrix is dropped on return."""
    return _signature((ops.B - shift * ops.Mm).tocsc(), ops.elimination_order)


def _signature(A, order):
    """(negative pivots, solve) of an unpivoted sparse factorization of
    real symmetric or complex Hermitian A in ``order``, or None if the
    count is unreliable.  The factorization is an LDL^H in disguise, so
    the signs of the real parts of the pivots give the inertia.
    Reliable when clear of roundoff (``_clear_of_roundoff``) at 1e-12 of
    max(|entry|, 1), raised for each pivot to 1e-12 of the largest pivot
    up to it: without pivoting an indefinite matrix can grow its
    entries, an LDL^H update puts that growth on the diagonal, and it
    scales the rounding error of every later pivot.
    """
    factor = _ordered_factor(A, order)
    if factor is None:
        return None
    d, solve = factor[0].real, factor[1]
    level = 1e-12 * np.maximum.accumulate(
        np.maximum(np.abs(d), max(np.abs(A.data).max(), 1.0)))
    if not _clear_of_roundoff(d, level, solve):
        return None
    return int((d < 0).sum()), solve


def _clear_of_roundoff(pivots, level, solve):
    """Whether a factorization of a shifted matrix is clear of roundoff:
    every pivot above its level, and the smallest eigenvalue in modulus,
    as one solve with a seeded random vector estimates it, above the
    largest.  Pivots alone can miss a shift on an eigenvalue: the
    eigenvalue eps of the shifted matrix enters the last pivot as about
    eps / |v_n|^2 for its unit eigenvector v, and v_n can be small."""
    top, b = np.max(level), _probe(len(pivots))
    # a level of 0 asks only that the factor exists
    return bool(np.all(np.abs(pivots) > level) and (
        top == 0.0 or np.linalg.norm(b) > top * np.linalg.norm(solve(b))))


@functools.lru_cache
def _probe(n):   # shared between calls, so read-only
    b = np.random.default_rng(0).standard_normal(n)
    b.flags.writeable = False
    return b


def first_eigfunction(ops):
    """Ground state of the pencil: (lambda1, rho).

    rho has unit Mm-norm and a positive Mm-weighted mean.  On a twisted
    line it is the cell vector, on cell 0, of the periodic problem,
    pencil (0, 0), which a cluster of ground values, one per phase,
    leaves unmixed; else the nodal vector.  A sign change, a value below
    -_SIGN_TOL max |rho| rather than a roundoff zero, raises
    ``MultiplicityWarningError``: the ground level is numerically
    multiple if the second eigenvalue, of the same pencil on a twisted
    line, lies within ``_MULTIPLE_GAP`` of the first, and otherwise it
    was not resolved as simple at this resolution.
    """
    lowest = None
    if isinstance(ops, TwistedLine):
        lowest, U = ops._phase(0, 0)
        lam1, rho = float(lowest[0]), U[:, 0] / np.sqrt(ops.phases * ops.nphi)
        mean = ops.line[0, :ops.m] @ rho
    else:
        report = lowest_eigs(ops, count=1, vectors=True)
        lam1, rho = report.lambda1, report.vectors[:, 0]
        m_rho = ops.Mm @ rho   # one product for the norm and the mean
        rho = rho / np.sqrt(rho @ m_rho)
        mean = m_rho.sum()
    if mean < 0:
        rho = -rho
    if rho.min() < -_SIGN_TOL * np.abs(rho).max():
        lam1, lam2 = (lowest_eigs(ops, count=2).eigenvalues
                      if lowest is None else lowest[:2])
        if lam2 - lam1 <= _MULTIPLE_GAP * max(abs(lam1), 1.0):
            raise MultiplicityWarningError(
                f"computed ground state changes sign; the ground level "
                f"{lam1:.8g} is numerically multiple (lambda2 - lambda1 = "
                f"{lam2 - lam1:.1e}); refining the mesh will not split it")
        raise MultiplicityWarningError(
            "computed ground state changes sign; the lowest eigenvalue "
            "is not resolved as simple at this resolution")
    return lam1, rho


def morse_index(ops, zero_tol=0.05):
    """Morse index: (eigenvalues below -zero_tol, report of a window of
    the lowest eigenvalues that ends above zero_tol).

    Two independent counts must agree.  The window's eigenpairs pass the
    residual check; the other count is Sylvester's law on the pivots of
    a factorization at -zero_tol.  On the unreduced pencil one
    factorization serves both: its solve drives shift-invert Lanczos at
    -zero_tol, whose window grows until it holds exactly the counted
    values below the shift (``_shift_invert``), or past a quarter of the
    spectrum is a dense solve.  On a split one sweep over the modes
    counts c- below -zero_tol and c+ below +zero_tol (``_mode_signature``,
    as in spectrum slicing), and one ``lowest_eigs`` call solves the
    lowest max(_MORSE_WINDOW, c+ + 1) values.  Its index must equal c-
    and its nullity c+ - c-, so the nullity has two paths too.
    """
    if not 0.0 < zero_tol < np.inf:
        raise InvalidParameterError(
            f"zero_tol must be finite and > 0, got {zero_tol}")
    count = min(_MORSE_WINDOW, ops.size)
    nullity = None   # c+ - c-, counted on the phi-mode path
    if ops.phi_modes is not None:
        (below, upto), _ = _retrying(
            functools.partial(_mode_signature, ops.phi_modes),
            np.array([-zero_tol, zero_tol]))
        nullity = upto - below
        report = lowest_eigs(ops, min(max(count, upto + 1), ops.size),
                             zero_tol)
    else:
        below = report = None
        if count <= ops.size // 4:
            below, vals, vecs = _shift_invert(ops, -zero_tol, count,
                                              zero_tol)
            if vals is None:   # the dense solve takes the larger windows
                count = ops.size // 4 + 1
            else:
                report = _report(ops, vals, vecs, zero_tol, "shift-invert")
        while report is None or report.window_saturated:
            report = lowest_eigs(ops, count=count, zero_tol=zero_tol)
            count = min(2 * count, ops.size)
        if below is None:
            below = inertia_below(ops, -zero_tol)
    if below != report.index:
        raise NumericalFailureError(
            f"index mismatch: eigensolver {report.index}, "
            f"factorization {below}")
    if nullity is not None and nullity != report.nullity:
        raise NumericalFailureError(
            f"nullity mismatch: eigensolver {report.nullity}, "
            f"factorization {nullity}")
    return report.index, report
