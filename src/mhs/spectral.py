"""Generalized eigenvalue solves for the stability pencil (K - W, Mm).

Two independent counting paths are provided: shift-invert Lanczos for
the lowest eigenpairs, and the signature of a symmetric factorization
for inertia counts; every reported index is expected to agree across
both.  On the unreduced pencil both factor the shifted pencil without
pivoting in one nested-dissection order of its graph
(``dissection_order``), and ``morse_index`` factors it once, at
-zero_tol, for both jobs (``_shift_invert``).  Sharing the factor keeps
the checks independent: the Lanczos pairs must pass a residual check
against the unfactored K - W and Mm, so a wrong solve cannot pass, and
the count is Sylvester's law on the pivots, so wrong pivot signs fail
the comparison of the two counts.  Only a request for over a quarter
of the spectrum takes a dense solve.

On a chart grid whose pencil is invariant under the one-step shift in
the rotation angle phi (every torus the package builds), the pencil is
block-circulant and both paths run on one small pencil per
phi-Fourier mode instead (``PhiModes``), read from block row 0 of B
and Mm.  Operators given as chart lines (``ChartLine``), stated by
block row 0 alone as ``fem`` assembles every torus mesh it builds, are
split from those rows with no check; their V x V matrices are lifted
from the rows only when a product, a dense solve or a sparse
factorization asks.  A pencil given as sparse matrices is split only
where each equals the lift of its own block row 0 to 1e-12 of its
largest entry (``_shift_invariant``).  A mode pencil is stored only
as a band, in the interleaved order 0, nt-1, 1, nt-2, ..., where a P1
pencil has bandwidth 2; it is complex only where a block is not
symmetric.  A mode is solved, by a dense eigensolve of its unpacked
band, only when a banded Cholesky factorization cannot exclude it from
the answer; that certificate costs O(nt kd^2) for bandwidth kd, not the
O(nt^3) of a dense one.  Where the pencil is invariant under the
one-step shift in theta too, as on every Clifford set, each mode pencil
is circulant and the theta-Fourier basis diagonalizes it: once the
block rows show every node row to be row 0 moved in theta
(``_first_unshifted_row``), the values of every mode are read from two
2-D Fourier sums of node row 0 (``_theta_symbols``), in place of both
the Cholesky certificate and the dense eigensolve.  Every inertia
count, of the unreduced pencil or of a mode that fails the
certificate, reads the pivot signs of one unpivoted sparse
factorization (``_signature``), in closed form too, so a count never
rests on the values it checks.  There ``morse_index``
counts first, at both ends of the zero window in one sweep over the
modes, and then solves exactly the counted window, so its nullity is
certified as well as its index.
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


def _lift(row, nphi):
    """The block-circulant V x V CSR matrix of block row 0 ``row`` on an
    (nt, nphi) grid: node row (i, j) is row i with every column (l, s)
    moved to (l, s + j), averaged with its transpose, which is
    block-circulant too, so that it is symmetric bit for bit as a
    scatter is."""
    R = row.tocoo()
    l, s = np.divmod(R.col, nphi)
    j = np.arange(nphi)[:, None]
    size = row.shape[1]
    L = sp.csr_matrix((np.tile(R.data, nphi),
                       ((R.row * nphi + j).ravel(),
                        (l * nphi + (s + j) % nphi).ravel())),
                      shape=(size, size))
    return ((L + L.T) * 0.5).tocsr()


def _shift_invariant(A, nphi):
    """Whether sparse A equals the lift of its block row 0 to _SHIFT_TOL
    of its largest entry: block-circulant in phi, with no drift along
    the phi-columns."""
    scale = abs(A).max()
    return abs(_lift(A[::nphi], nphi) - A).max() <= _SHIFT_TOL * scale


def _block_row(A, nphi):
    """Block row 0 of A where A is block-circulant in phi, else None: the
    row a chart line is stated by, or the rows i*nphi of a sparse matrix
    that passes ``_shift_invariant``."""
    if isinstance(A, ChartLine):
        return A.row
    return A[::nphi] if _shift_invariant(A, nphi) else None


def _sparse(A):
    """A as a sparse matrix: the lift of a chart line, else A itself."""
    return A.matrix if isinstance(A, ChartLine) else A


class ChartLine(spla.LinearOperator):
    """A block-circulant operator on the nodes of an (nt, nphi) chart
    grid, stated by its block row 0.

    Node (i, j) is i*nphi + j, and ``row`` is the sparse nt x nt*nphi
    block row 0: entry (i, l*nphi + s) is C_s[i, l], the weight of node
    (l, j + s) in node row (i, j) for every j.  ``matrix``, the V x V
    CSR form, is lifted from the row on first use (``_lift``), and
    products use it unless ``apply`` states them in factors.  A sum,
    difference or scalar multiple of chart lines is the chart line of
    the same combination of rows, applied term by term if a term has
    factors.  With a matrix it is a matrix, formed with the lift; a
    line with factors is never lifted and takes the matrix as the line
    of its block row 0 instead, which must pass ``_shift_invariant``.
    """

    def __init__(self, row, nphi, apply=None):
        super().__init__(float, (row.shape[1],) * 2)
        self.row, self.nphi, self.apply = row, nphi, apply

    @functools.cached_property
    def matrix(self):
        return _lift(self.row, self.nphi)

    @property
    def nnz(self):
        """Stored entries of ``matrix``, which need not be formed, where
        the pattern of the line is symmetric as every assembled one is."""
        return self.row.nnz * self.nphi

    def _matmat(self, X):
        return self.matrix @ X if self.apply is None else self.apply(X)

    def _joined(self, row, other, apply):
        factored = (self.apply is not None
                    or getattr(other, "apply", None) is not None)
        return ChartLine(row, self.nphi, apply if factored else None)

    def _operand(self, x):
        """x, or the chart line of matrix x where self has factors."""
        if self.apply is None or isinstance(x, ChartLine):
            return x
        row = _block_row(x, self.nphi)
        if row is None:
            raise InvalidParameterError(
                "a factored chart line joins only a matrix that is "
                "block-circulant in phi")
        return ChartLine(row, self.nphi)

    def __add__(self, x):
        x = self._operand(x)
        if isinstance(x, ChartLine):
            return self._joined(self.row + x.row, x,
                                lambda X: self @ X + x @ X)
        return self.matrix + x

    def __sub__(self, x):
        x = self._operand(x)
        if isinstance(x, ChartLine):
            return self._joined(self.row - x.row, x,
                                lambda X: self @ X - x @ X)
        return self.matrix - x

    def __rsub__(self, x):
        x = self._operand(x)
        return x - self if isinstance(x, ChartLine) else x - self.matrix

    def __mul__(self, x):
        if np.isscalar(x):
            return self._joined(x * self.row, None, lambda X: x * (self @ X))
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
    entry.  Rows are compared in runs [1, 2), [2, 4), [4, 8), ..., so
    the check reads at most twice the rows before the first that
    differs."""
    R = row.tocsr()
    ptr, width = R.indptr, R.indptr[1]
    tol = _SHIFT_TOL * np.abs(R.data).max(initial=0.0)

    def moved_back(start, stop):
        """(keys l*nphi + s, values) of rows start to stop - 1, each
        moved back to row 0 and sorted by key."""
        block, shape = slice(ptr[start], ptr[stop]), (stop - start, width)
        l, s = np.divmod(R.indices[block].reshape(shape), nphi)
        key = (l - np.arange(start, stop)[:, None]) % nt * nphi + s
        o = np.argsort(key, axis=1)
        return (np.take_along_axis(key, o, axis=1),
                np.take_along_axis(R.data[block].reshape(shape), o, axis=1))
    key0, val0 = moved_back(0, 1)
    start = 1
    while start < nt:
        stop = min(2 * start, nt)
        # a row of another width ends the run
        short = np.flatnonzero(np.diff(ptr[start:stop + 1]) != width)
        key, val = moved_back(start, start + short[0] if len(short)
                              else stop)
        same = ((key == key0).all(axis=1)
                & (np.abs(val - val0) <= tol).all(axis=1))
        first = start + (len(same) if same.all() else int(np.argmin(same)))
        if first < stop:
            return first
        start = stop
    return nt


def _theta_symbols(nt, nphi, B_row, Mm_row):
    """(b, m): the real parts of the 2-D Fourier sums of node row 0 of
    block rows 0 of B and Mm, as (nt, nphi // 2 + 1) arrays over
    (theta-mode a, phi-mode k), where both block rows are circulant in
    theta too (``_first_unshifted_row``) and m is positive; else None.
    Only the real part counts, since the lift is symmetrized."""
    symbols = []
    for row in (B_row, Mm_row):
        if _first_unshifted_row(row, nt, nphi) < nt:
            return None
        R = row.tocsr()
        line = np.bincount(R.indices[:R.indptr[1]], R.data[:R.indptr[1]],
                           minlength=nt * nphi)
        symbols.append(np.fft.rfft2(line.reshape(nt, nphi)).real)
    return tuple(symbols) if symbols[1].min() > 0 else None


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

    The band is the only stored form of a mode pencil: per-offset lower
    band columns in the interleaved order 0, nt-1, 1, nt-2, ..., read
    once from block row 0 of B and Mm, with the bandwidth kd read from
    the pattern (a P1 block is cyclic tridiagonal, so kd = 2; a Fourier
    spectral block is dense, so kd = nt - 1).  ``band`` sums them for a
    mode and shift, ``pencil`` unpacks them into a dense pencil in the
    same interleaved order, and ``lift`` maps vectors back to node order.
    Where every block is symmetric, as on a Kronecker-built spectral set,
    the antisymmetric part is empty and each mode pencil stays real.

    Modes are solved lazily (``lowest``): a mode is either solved, by one
    dense eigensolve whose eigenpairs are kept, or certified, by a banded
    Cholesky factorization (``positive``, O(nt kd^2)) proving it has
    nothing below a threshold.

    Where every node row i of the block rows of B and Mm is row 0 moved
    i steps in theta, to _SHIFT_TOL of the largest entry, each C_s is
    circulant too, and x(i, j) = e^(2 pi i (a i / nt + k j / nphi)) is an
    eigenvector of the pencil with the value b(a, k) / m(a, k): the real
    parts of the 2-D Fourier sums of node row 0, since the lift is
    symmetrized (``symbols``, from ``_theta_symbols``, None where the
    check fails).  Then a mode is certified by every b - shift m > 0
    and solved by sorting its values (``_excludes``, ``_solve``), with
    no dense eigensolve and the same meaning of ``solved``.  The counts
    of ``_mode_signature`` still read the band pivots, and every pair
    returned still passes the residual check on its band pencil, so
    the closed form is checked by two paths like a dense solve.
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
        # mode k -> (ascending eigenvalues, Mm_k-orthonormal vectors in
        # the interleaved order)
        self.solved = {}
        # largest tau at which B_k - (tau + gap) Mm_k factored by Cholesky
        # or, in closed form, had every symbol positive
        self.certified = np.full(self.count, -np.inf)
        # leading eigenpairs of each solved mode that passed the residual
        # check
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

    @classmethod
    def build(cls, B, Mm, grid_shape):
        """The split of (B, Mm) read from their block rows 0
        (``_block_row``), or None without a grid or where B or Mm is not
        block-circulant in phi."""
        if grid_shape is None:
            return None
        nt, nphi = grid_shape
        if nt * nphi != B.shape[0]:
            return None
        B_row = _block_row(B, nphi)
        Mm_row = None if B_row is None else _block_row(Mm, nphi)
        return None if Mm_row is None else cls(nt, nphi, B_row, Mm_row)

    @property
    def count(self):
        """Number of distinct modes k = 0 .. nphi // 2."""
        return self.nphi // 2 + 1

    def multiplicity(self, k):
        return 1 if (2 * k) % self.nphi == 0 else 2

    def _band_sum(self, operator, k):
        offsets, even, odd = operator
        theta = 2 * np.pi * (offsets * k % self.nphi) / self.nphi
        ab = even @ np.cos(theta)
        if self.multiplicity(k) == 2 and odd.nnz:
            ab = ab + 1j * (odd @ np.sin(theta))
        return ab.reshape(self.kd + 1, self.nt)

    def pencil(self, k):
        """Dense Hermitian (B_k, Mm_k) of mode k in the interleaved order."""
        return tuple(sp.coo_matrix(_unband(self._band_sum(operator, k)),
                                   shape=(self.nt,) * 2).toarray()
                     for operator in (self._B, self._Mm))

    def band(self, k, shift):
        """B_k - shift Mm_k in LAPACK lower band storage in the
        interleaved order: entry (d, Q) is the matrix entry at positions
        (Q + d, Q)."""
        return (self._band_sum(self._B, k)
                - shift * self._band_sum(self._Mm, k))

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

    def lift(self, k, U):
        """Real nodal vectors of mode-k eigenvectors U (Mm_k-orthonormal,
        rows in the interleaved order).

        Returns Mm-orthonormal columns: one per column of U for a real
        mode, the real and imaginary parts in turn for a complex one.
        """
        U = U[self._position]
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

    def _merged(self):
        """(eigenvalues, modes, columns in lift(k, U)) of the solved modes,
        ascending, complex modes twice.  Values within a relative
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

        tau is the count-th smallest eigenvalue of the modes solved so
        far (infinite while they have fewer).  The modes are swept in
        order of k, with no monotonicity in k assumed: an unsolved mode
        is passed over when it is certified at tau or above, else it is
        certified now if B_k - (tau + gap) Mm_k factors by the banded
        Cholesky of ``positive`` (Sylvester's law: then every eigenvalue
        of the mode exceeds tau + gap) or, in closed form, has every
        symbol b - (tau + gap) m positive, else it is solved, by a dense
        eigensolve or in closed form, and tau recomputed.  The gap, a
        relative _CERTIFY_GAP, keeps a mode whose eigenvalue ties tau
        from being left out on rounding.  The eigenpairs of each mode
        behind the answer pass the residual check.
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
            lam, U = self.solved[k]
            if r > self._checked[k]:
                _residual_check(*self.pencil(k), lam[:r], U[:, :r])
                self._checked[k] = r
            if vectors:
                X[:, sel] = self.lift(k, U[:, :r])[:, cols[sel]]
        return vals, modes, X


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
    R = sp.coo_matrix(_sparse(A))
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

    On a phi-shift-invariant chart grid the values come from the mode
    pencils that certificates cannot exclude (``PhiModes``), in closed
    form where the pencil is invariant in theta too.
    Otherwise a request for over a quarter of the spectrum takes a dense
    solve, and any other shift-invert Lanczos (``_shift_invert``) with
    the shift -q_max - 1 below the spectrum: the pencil is bounded below
    by -q_max, so the factor there must have no negative pivot.
    """
    size = ops.size
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
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
        vals, vecs = sla.eigh(_sparse(ops.B).toarray(),
                              _sparse(ops.Mm).toarray())
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
            vals, vecs = spla.eigsh(_sparse(ops.B), k=count,
                                    M=_sparse(ops.Mm), sigma=shift,
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
    On a phi-shift-invariant chart grid it sums the signatures of the
    mode pencils, each with its multiplicity: none negative where a
    banded Cholesky factorization succeeds, else from the pivots of the
    mode's band.  Otherwise it factors the unreduced pencil in
    ``ops.elimination_order`` (``_nodal_signature``), the factorization
    whose solve ``morse_index`` also hands to Lanczos.
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
    count is unreliable.

    One sweep over the modes serves every shift.  A mode whose pencil
    shifted by the largest shift factors by a banded Cholesky
    (``PhiModes.positive``) clear of roundoff adds no negatives at any
    of them; any other takes the signature of its unpacked band at each
    shift, in the band's own order.
    """
    totals, top = [0] * np.size(shifts), np.max(shifts)
    for k in range(modes.count):
        if modes.positive(k, top, 1e-12):
            continue
        for i, shift in enumerate(np.ravel(shifts)):
            A = sp.csc_matrix(_unband(modes.band(k, shift)))
            signature = _signature(A, np.arange(modes.nt))
            if signature is None:
                return None
            totals[i] += modes.multiplicity(k) * signature[0]
    return tuple(totals) if np.ndim(shifts) else totals[0]


def _nodal_signature(ops, shift):
    """_signature of the unreduced K - W - shift Mm in
    ``ops.elimination_order``; the shifted matrix is dropped on return."""
    return _signature((_sparse(ops.B) - shift * _sparse(ops.Mm)).tocsc(),
                      ops.elimination_order)


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
    """Ground state of the pencil: (lambda1, nodal vector).

    The vector is normalized to unit Mm-norm with its global sign fixed
    so that the Mm-weighted mean is positive.  A sign change across
    nodes, a value below -_SIGN_TOL max |rho| rather than a roundoff
    zero, raises ``MultiplicityWarningError``: the ground level is
    numerically multiple if the second eigenvalue lies within
    ``_MULTIPLE_GAP`` of the first, and otherwise it was not resolved as
    simple at this resolution.
    """
    report = lowest_eigs(ops, count=1, vectors=True)
    rho = report.vectors[:, 0]
    mnorm = float(np.sqrt(rho @ (ops.Mm @ rho)))
    rho = rho / mnorm
    mean = float(np.ones(ops.size) @ (ops.Mm @ rho))
    if mean < 0:
        rho = -rho
    if rho.min() < -_SIGN_TOL * np.abs(rho).max():
        lam1, lam2 = lowest_eigs(ops, count=2).eigenvalues
        if lam2 - lam1 <= _MULTIPLE_GAP * max(abs(lam1), 1.0):
            raise MultiplicityWarningError(
                f"computed ground state changes sign; the ground level "
                f"{lam1:.8g} is numerically multiple (lambda2 - lambda1 = "
                f"{lam2 - lam1:.1e}); refining the mesh will not split it")
        raise MultiplicityWarningError(
            "computed ground state changes sign; the lowest eigenvalue "
            "is not resolved as simple at this resolution")
    return report.lambda1, rho


def morse_index(ops, zero_tol=0.05):
    """Morse index: (eigenvalues below -zero_tol, report of a window of
    the lowest eigenvalues that ends above zero_tol).

    Two independent counts must agree.  The window's eigenpairs pass the
    residual check against the unfactored K - W and Mm; the other count
    is Sylvester's law on the pivots of a factorization at -zero_tol.
    On the unreduced pencil one factorization serves both: its solve
    drives shift-invert Lanczos at -zero_tol, whose window grows until
    it holds exactly the counted values below the shift
    (``_shift_invert``).  On the phi-mode path one sweep over the modes
    counts c- below -zero_tol and c+ below +zero_tol (``_mode_signature``,
    as in spectrum slicing), and one ``lowest_eigs`` call solves the
    lowest max(_MORSE_WINDOW, c+ + 1) values, at least one more than
    the count below zero_tol.  Its index must equal c- and its nullity
    c+ - c-, so the nullity has two paths too.  A window past a quarter
    of the spectrum of the unreduced pencil is a dense solve, checked
    against the count of the one factorization.
    """
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
