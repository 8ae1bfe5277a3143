"""Trial-space analysis of the stability form on coordinate functions.

The ambient coordinates l_v = <x, v> and the Gauss-map coordinates
f_v = <nu, v> satisfy Delta l_v = -n l_v and Delta f_v = -|A|^2 f_v, and
together with the ground state rho they span low-dimensional trial
spaces on which the stability form B(f, f) = int f J(f) can be made
negative.  This module checks those identities discretely, measures the
rank of the trial spaces, runs the averaged choice of the distinguished
direction v0, and verifies the completed-square decomposition of the
form on the (n+4)-dimensional trial space term by term.

Every trial space of the paper lies in the coordinate span
{rho, 1, f_e.., l_e..}.  The checks read one ``TrialForms`` value and
nothing else: the span's Gram matrices for the mass, the stability form
and the |A|^2-weighted mass, lambda1, the two normal moments behind v0,
|M|, int |A|^2, sup |A|^2, n and the identity residuals.  So each check
is small dense algebra, and no check reads a mesh, an operator set, a
nodal vector or a quadrature point.  Two producers make the value:
``trial_forms`` from a mesh and its operator set, and ``line_forms``
from a spectral line's phase pencils and node sums, with no mesh.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import InvalidParameterError

_DEFAULT_RANK_TOL = 1e-8
# eigenvalues of Q this close (relative) to the smallest span v0's space
_V0_DEGENERACY_TOL = 1e-6

VERDICT_NEGATIVE = "negative_definite"
VERDICT_NOT_NEGATIVE = "not_negative_definite"
VERDICT_HYP_FAIL = "hypotheses_not_met"
VERDICT_GEODESIC = "excluded_geodesic"


@dataclass(frozen=True)
class FormReport:
    """Gram and stability-form matrices on a named function basis."""

    basis_labels: tuple
    G: np.ndarray
    B: np.ndarray
    rank: int
    neg_inertia: int

    def to_dict(self):
        return {"basis_labels": list(self.basis_labels),
                "G": self.G.tolist(), "B": self.B.tolist(),
                "rank": self.rank, "neg_inertia": self.neg_inertia}


@dataclass(frozen=True)
class IdentityReport:
    """Worst-case residuals of the coordinate-function integrals."""

    int_l: float        # max_v |int l_v|
    int_asq_f: float    # max_v |int |A|^2 f_v|
    pair: float         # max_{v,w} |int (|A|^2 - n) l_w f_v|
    area: float
    mode: str           # "analytic" (chart quadrature) or "discrete"

    def to_dict(self):
        return {"int_l": self.int_l, "int_asq_f": self.int_asq_f,
                "pair": self.pair, "area": self.area, "mode": self.mode}


@dataclass(frozen=True)
class TheoremReport:
    """Hypothesis flags and trial-space verdict for one (delta1, delta2)."""

    delta1: float
    delta2: float
    hyp_integral: bool
    hyp_pointwise: bool
    geodesic_flag: bool
    v0: np.ndarray
    gamma0_max_eig: Optional[float]
    verdict: str
    neg_inertia_gamma0: int
    spectral_index: int
    rr_consistent: bool
    # [lo, hi] of the delta1 at which both hypotheses hold, or None
    delta1_interval: Optional[tuple]

    def to_dict(self):
        return {"delta1": self.delta1, "delta2": self.delta2,
                "hyp_integral": self.hyp_integral,
                "hyp_pointwise": self.hyp_pointwise,
                "geodesic_flag": self.geodesic_flag,
                "v0": self.v0.tolist(),
                "gamma0_max_eig": self.gamma0_max_eig,
                "verdict": self.verdict,
                "neg_inertia_gamma0": self.neg_inertia_gamma0,
                "spectral_index": self.spectral_index,
                "rr_consistent": self.rr_consistent,
                "delta1_interval": (None if self.delta1_interval is None
                                    else list(self.delta1_interval))}


@dataclass(frozen=True)
class TrialForms:
    """What the paper's checks read of one surface of dimension n.

    ``grams`` are the symmetric Mm-, B- and SA-Gram matrices of the
    coordinate span named by ``labels``, {rho, 1, f_e.., l_e..}, where
    rho and lam1 are the ground state and its level; forms without a
    ground state have no rho column and lam1 None.  ``moments`` are
    Q_A = int |A|^2 nu nu^T and Q_1 = int nu nu^T, from which v0 is
    chosen for any delta2, and ``identities`` the residuals of the
    coordinate-function integrals with the area |M|.
    """

    n: int
    labels: tuple
    grams: tuple          # (G, B, SA) over labels
    lam1: Optional[float]
    moments: tuple        # (Q_A, Q_1)
    identities: IdentityReport
    asq_integral: float   # int |A|^2
    asq_max: float        # sup |A|^2 at the quadrature points

    @property
    def ratio(self):
        """int |A|^2 divided by n |M|.

        For n = 2 it equals 1 - 2 pi chi / |M| (Gauss equation and
        Gauss-Bonnet): 1 on every minimal torus, 0 on the equator.
        """
        return self.asq_integral / (self.n * self.identities.area)

    def block(self, head):
        """Labels and (G, B, SA) of the span {head, f_e.., l_e..}."""
        first = self.labels.index("f_e1")
        if head not in self.labels[:first]:
            raise InvalidParameterError(f"the trial forms have no {head} "
                                        "column")
        idx = [self.labels.index(head), *range(first, len(self.labels))]
        return (tuple(self.labels[i] for i in idx),
                *(F[np.ix_(idx, idx)] for F in self.grams))


@dataclass(frozen=True)
class ChainRecord:
    """The four lines of the completed-square estimate for one draw."""

    L0: float
    L0e: float
    L1: float
    L2: float
    terms: tuple          # the four signed contributions to L2
    scale: float
    lambda1: float

    @property
    def residual_identity(self):
        return abs(self.L1 - self.L2)

    @property
    def residual_expansion(self):
        return abs(self.L0 - self.L0e)

    def to_dict(self):
        return {"L0": self.L0, "L0e": self.L0e, "L1": self.L1,
                "L2": self.L2, "terms": list(self.terms),
                "scale": self.scale, "lambda1": self.lambda1,
                "residual_identity": self.residual_identity,
                "residual_expansion": self.residual_expansion}


# ----------------------------------------------------------------------
# trial-space machinery
# ----------------------------------------------------------------------

def _pencil_eigs(B, G, rank_tol=_DEFAULT_RANK_TOL):
    """Ascending eigenvalues of the form B on the span with Gram G.

    G may be rank deficient (collapsed bases); the form is reduced to
    the subspace of G-eigenvectors above rank_tol times the largest, so
    there are as many eigenvalues as the numerical rank.
    """
    gvals, gvecs = sla.eigh(np.asarray(G, dtype=float))
    keep = gvals > rank_tol * max(gvals.max(), 0.0)
    if not keep.any():
        return np.empty(0)
    U = gvecs[:, keep] / np.sqrt(gvals[keep])
    return sla.eigh(U.T @ np.asarray(B, dtype=float) @ U, eigvals_only=True)


def pencil_inertia(B, G, rank_tol=_DEFAULT_RANK_TOL):
    """(rank, negative inertia) of the form B on the span with Gram G."""
    if not 0.0 < rank_tol < 1.0:
        raise InvalidParameterError(
            f"rank_tol must lie in (0, 1), got {rank_tol}")
    vals = _pencil_eigs(B, G, rank_tol)
    return len(vals), int((vals < 0.0).sum())


def _span_forms(ops, X):
    """X^T Mm X, X^T B X and X^T SA X, each symmetrized."""
    forms = [X.T @ (A @ X) for A in (ops.Mm, ops.B, ops.SA)]
    return [0.5 * (F + F.T) for F in forms]


def _point_sums(n, w, asq, x, nu, mode):
    """The moments, identities, int |A|^2 and sup |A|^2 of TrialForms, as
    keywords, from one pass over points with weights w.  Its sums go
    through BLAS, whose blocked sums are more accurate than one long
    einsum accumulation.  Raises unless ||nu|^2 - 1| <= 1e-10 at every
    point, which bounds trace Q - int (|A|^2 - n delta2) =
    int (|A|^2 - n delta2)(|nu|^2 - 1) to 1e-10 relative for any delta2.
    """
    x, nu = (a.reshape(-1, a.shape[-1]) for a in (x, nu))
    if np.abs(np.einsum("pa,pa->p", nu, nu) - 1.0).max() > 1e-10:
        raise InvalidParameterError("quadrature normals are not unit")
    pair = ((w * (asq - n)).reshape(-1, 1) * x).T @ nu
    w_nu = w.reshape(-1, 1) * nu
    asq_nu = asq.reshape(-1, 1) * w_nu
    identities = IdentityReport(
        int_l=float(np.abs(w.reshape(-1) @ x).max()),
        int_asq_f=float(np.abs(asq.reshape(-1) @ w_nu).max()),
        pair=float(np.abs(pair).max()), area=float(w.sum()), mode=mode)
    return dict(moments=(asq_nu.T @ nu, w_nu.T @ nu), identities=identities,
                asq_integral=float((w * asq).sum()), asq_max=float(asq.max()))


def trial_forms(mesh, ops, ground):
    """The TrialForms of a mesh and its operator set.

    ground is (lam1, rho) from ``spectral.first_eigfunction(ops)``, or
    None for forms without the rho column, which only the conjecture
    probe reads.  One product of the operators with the nodal columns
    {rho, 1, f_e.., l_e..} gives the Grams.  One pass over the
    quadrature points (``_point_sums``), weighted by quad_measure (the
    curved area element of a chart, the flat weights on a mesh without
    one), gives the rest.  The identity mode is "analytic" on a mesh
    with a source family (exact chart samples), "discrete" otherwise.
    """
    sums = _point_sums(mesh.surface_dim, mesh.quad_measure, mesh.quad_asq,
                       mesh.quad_points, mesh.quad_nu, "discrete"
                       if mesh.source_family is None else "analytic")
    heads = {} if ground is None else {"rho": ground[1]}
    heads["one"] = np.ones(mesh.num_vertices)
    X = np.column_stack([*heads.values(), mesh.vertex_nu, mesh.vertices])
    dim = mesh.vertices.shape[1]
    labels = (*heads, *(f"f_e{a + 1}" for a in range(dim)),
              *(f"l_e{a + 1}" for a in range(dim)))
    return TrialForms(
        n=mesh.surface_dim, labels=labels, grams=tuple(_span_forms(ops, X)),
        lam1=None if ground is None else float(ground[0]), **sums)


def line_forms(line, ground):
    """The TrialForms of a spectral line (``spectral.TwistedLine``), from
    the phase pencils its index reads, with no mesh.

    ground is (lam1, rho) from ``spectral.first_eigfunction(line)``, or
    None.  Each column is a Bloch wave Re(c(a) e^(2 pi i r b / P + i k
    phi)) at node b m + a of the line turned to phi, c on cell 0: rho and
    1 in pencil (r, k) = (0, 0); l_e1, l_e2, f_e1 and f_e2, cos(alpha)
    e^(iv) times functions of theta, as c_0 + i c_1 and c_1 - i c_0 in
    (p, 0), e^(iv) turning by p / P over a cell; the rest as c and -i c
    in (0, 1).  Waves meet only where their (r, k) are equal or opposite,
    in (P / 2) Re(c^H F d) and Re(c^T F d), F the pencil's Mm, B or SA,
    whose weight w carries the 2 pi of phi.  The sums are one pass
    (``_point_sums``) over the nt nodes at phi = 0, 2 pi / 3 and
    4 pi / 3, each with weight w / 3, exact in phi: their integrands are
    trigonometric polynomials of degree <= 2 in phi.
    """
    n, P, m = line.n, line.phases, line.m
    X, nu = line.frame
    w, wA = line.line[0], line.line[3] - n * line.line[0]   # w |A|^2
    z = X[:, 0] + 1j * X[:, 1]
    p = round(P * np.angle(z[m % line.nt] / z[0]) / (2 * np.pi)) % P
    heads = {} if ground is None else {"rho": ground[1]}
    heads["one"] = np.ones(m)
    cols = [(c, (0, 0)) for c in heads.values()]
    for F in (nu, X):
        g, a = F[:m, 0] + 1j * F[:m, 1], F[:m, 2]
        cols += [(g, (p, 0)), (-1j * g, (p, 0)),
                 (a, (0, 1)), (-1j * a, (0, 1))]
    C, keys = np.column_stack([c for c, _ in cols]), [k for _, k in cols]
    grams = np.zeros((3, len(cols), len(cols)))
    for r, k in set(keys):
        S = [i for i, key in enumerate(keys) if key == (r, k)]
        T = [i for i, key in enumerate(keys) if key == (-r % P, -k)]
        B, Mm = line.pencil(r if 2 * r < P else r - P, k)
        for F, A in zip(grams, (Mm, B, np.diag(wA[:m]))):
            F[np.ix_(S, S)] += (C[:, S].conj().T @ A @ C[:, S]).real
            F[np.ix_(T, S)] += (C[:, T].T @ A @ C[:, S]).real
    # the turns of the (e_3, e_4)-plane that carry phi = 0 to each angle
    angle = 2 * np.pi * np.arange(3) / 3
    c, s = np.cos(angle), np.sin(angle)
    turns = np.tile(np.eye(4), (3, 1, 1))
    turns[:, 2:, 2:] = np.moveaxis([[c, -s], [s, c]], -1, 0)
    x, nu = (np.concatenate(y @ turns.transpose(0, 2, 1)) for y in (X, nu))
    return TrialForms(
        n=n, labels=(*heads, *(f"{f}_e{a + 1}" for f in "fl"
                               for a in range(4))),
        grams=tuple(grams * (P / 2)),
        lam1=None if ground is None else float(ground[0]),
        **_point_sums(n, np.tile(w / 3, 3), np.tile(wA / w, 3), x, nu,
                      "analytic"))


def lemma_check(forms):
    """Gram rank of the (2n+5)-function trial set {rho, f's, l's}.

    Full rank certifies the surface is neither totally geodesic nor a
    product torus (those collapse the f's onto constants or the l's).
    Returns (rank, verdict, FormReport, the full rank 2n+5).
    """
    labels, G, B, _ = forms.block("rho")
    report = FormReport(labels, G, B, *pencil_inertia(B, G))
    full = 2 * forms.n + 5
    verdict = "full_rank" if report.rank == full else "collapsed"
    return report.rank, verdict, report, full


def _lowest_direction(Q):
    """Unit vectors of the lowest eigenspaces of a stack Q of symmetric
    d x d matrices, free of rounding, one row per matrix.

    Eigenvalues within _V0_DEGENERACY_TOL * max|lambda| of the smallest
    count as one eigenspace, of dimension k and with projector P; the
    row is P e_a / |P e_a| for the first axis with |P e_a|^2 >= k/(2d),
    which exists because trace P = k.  So a degenerate minimum (an
    isotropic block under a symmetry) yields the same direction whatever
    the summation order.  One stacked eigensolve serves the whole stack,
    and each matrix gets the same bits in a stack of any length.
    """
    vals, vecs = np.linalg.eigh(Q)
    d = vals.shape[-1]
    tol = _V0_DEGENERACY_TOL * np.abs(vals).max(axis=-1, keepdims=True)
    k = (vals - vals[:, :1] <= tol).sum(axis=-1)
    lead = vecs * (np.arange(d) < k[:, None])[:, None, :]
    P = lead @ np.swapaxes(lead, 1, 2)
    diag = np.diagonal(P, axis1=1, axis2=2)
    a = np.argmax(diag >= (k / (2.0 * d))[:, None], axis=-1)
    column = P[np.arange(len(P)), :, a]
    return column / np.linalg.norm(column, axis=-1, keepdims=True)


def _v0_from_moments(moments, n, delta2):
    """Distinguished directions minimizing int (|A|^2 - n delta2) f_v^2
    on an n-surface, one per entry of the array delta2.

    Forms the quadratic form Q(delta2) = Q_A - n delta2 Q_1 over the
    ambient basis from the normal moments (Q_A, Q_1) and returns, for
    each delta2, a unit vector of its lowest eigenspace (canonical when
    that space is degenerate, ``_lowest_direction``) and v0^T Q v0.
    The averaging identity trace Q = int (|A|^2 - n delta2) holds to
    1e-10 relative, by the unit-normal check of ``trial_forms``.
    """
    delta2 = np.asarray(delta2, dtype=float)
    if not np.all((0.0 < delta2) & (delta2 < 1.0)):
        raise InvalidParameterError("delta2 must lie in (0, 1)")
    Q_A, Q_1 = moments
    Q = Q_A - (n * delta2)[:, None, None] * Q_1
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    v0 = _lowest_direction(Q)
    return v0, np.einsum("pa,pab,pb->p", v0, Q, v0)


def _gamma0_form(G, B, v0):
    """FormReport on {rho, l_e1.., f_v0} and its largest pencil eigenvalue.

    G and B are the Grams of {rho, f_e.., l_e..}.  Since f_v0 is
    sum_a v0_a f_ea, the trial space is the image of a coefficient map C
    and its forms are C^T G C and C^T B C.  The eigenvalue is None when
    the trial space is numerically null.
    """
    d = len(v0)
    C = np.zeros((2 * d + 1, d + 2))
    C[0, 0] = 1.0
    C[1:d + 1, d + 1] = v0
    C[d + 1:, 1:d + 1] = np.eye(d)
    G0, B0 = (0.5 * (F + F.T) for F in (C.T @ G @ C, C.T @ B @ C))
    vals = _pencil_eigs(B0, G0)
    labels = (("rho",) + tuple(f"l_e{a + 1}" for a in range(d))
              + ("f_v0",))
    report = FormReport(labels, G0, B0, len(vals), int((vals < 0.0).sum()))
    return report, (float(vals[-1]) if len(vals) else None)


def theorem_check(forms, delta1, index):
    """Hypothesis flags and the sign of the form on {rho, l's, f_v0}.

    delta1 lies in (0, 1) and delta2 is 1 - delta1; index is the
    spectral Morse index of the surface, which the caller computes.
    Verdict precedence: a totally geodesic surface is excluded, failed
    hypotheses are reported as such, and otherwise the verdict is the
    sign of the largest pencil eigenvalue of (B, G) on the trial space.
    The report always carries the Rayleigh-Ritz cross-check
    neg_inertia <= index, and the interval of delta1 at which both
    hypotheses hold, [sup |A|^2 / (2n), 1 - ratio] clipped to [0, 1]
    (None when empty, that is when no split of the form works).
    """
    if not (0.0 < delta1 < 1.0):
        raise InvalidParameterError("delta1 must lie in (0, 1)")
    n, asq_max, ratio = forms.n, forms.asq_max, forms.ratio
    delta2 = 1.0 - delta1
    hyp_integral = ratio <= delta2
    hyp_pointwise = asq_max <= 2.0 * n * delta1
    lo = max(asq_max / (2.0 * n), 0.0)
    hi = min(1.0 - ratio, 1.0)
    geodesic = asq_max < 1e-12
    v0 = _v0_from_moments(forms.moments, n, [delta2])[0][0]
    _, G, B, _ = forms.block("rho")
    report, gamma0_max = _gamma0_form(G, B, v0)
    if geodesic:
        verdict = VERDICT_GEODESIC
    elif not (hyp_integral and hyp_pointwise):
        verdict = VERDICT_HYP_FAIL
    elif gamma0_max is not None and gamma0_max < 0:
        verdict = VERDICT_NEGATIVE
    else:
        verdict = VERDICT_NOT_NEGATIVE
    return TheoremReport(
        delta1=float(delta1), delta2=float(delta2),
        hyp_integral=hyp_integral, hyp_pointwise=hyp_pointwise,
        geodesic_flag=geodesic, v0=v0, gamma0_max_eig=gamma0_max,
        verdict=verdict, neg_inertia_gamma0=report.neg_inertia,
        spectral_index=index, rr_consistent=report.neg_inertia <= index,
        delta1_interval=(lo, hi) if lo <= hi else None)


def conjecture_probe(forms, rank_tol=_DEFAULT_RANK_TOL):
    """Form report on {1, f's, l's} plus the (n+4)-dimensional flag.

    By Sylvester's law the negative inertia equals the largest dimension
    of a subspace on which the stability form is negative definite, so
    the flag records whether such a subspace of dimension n+4 exists in
    this discretization.
    """
    labels, G, B, _ = forms.block("one")
    report = FormReport(labels, G, B, *pencil_inertia(B, G, rank_tol))
    return report, report.neg_inertia >= forms.n + 4


def _chain_records(grams, n, lam1, a, b, w, delta1, v0):
    """The chain lines for f = a rho + l_w + b f_v0 on the Grams
    (G, B, SA) of {rho, f_e.., l_e..}, one ChainRecord per row of a, b,
    w, delta1 and v0.

    L0 is the direct value, L0e its integral expansion, L1 substitutes
    lambda1 <= -2n, and the completed square L2 equals L1 exactly.
    Every integral is u^T F v on span coefficient vectors, stacked over
    the draws.
    """
    G, B, SA = grams
    delta2 = 1.0 - delta1
    draws, d = v0.shape
    rho = np.zeros((draws, 2 * d + 1))
    rho[:, 0] = 1.0
    lw, f0 = np.zeros_like(rho), np.zeros_like(rho)
    lw[:, d + 1:] = w
    f0[:, 1:d + 1] = v0
    f = a[:, None] * rho + lw + b[:, None] * f0

    def dot(u, F, v):
        return np.einsum("pi,pi->p", u @ F, v)

    rho2 = G[0, 0]
    f02 = dot(f0, G, f0)
    asq_l2 = dot(lw, SA, lw)
    asq_lf = dot(lw, SA, f0)
    asq_rl = dot(rho, SA, lw)
    L0 = dot(f, B, f)
    L0e = (a * a * lam1 * rho2 - asq_l2 - n * b * b * f02
           - 2.0 * b * asq_lf - 2.0 * a * asq_rl)
    L1 = (-2.0 * a * a * n * rho2 - asq_l2 - n * b * b * f02
          - 2.0 * b * asq_lf - 2.0 * a * asq_rl)
    t1 = a * a * (SA[0, 0] / delta1 - 2.0 * n * rho2)
    g2 = (a / np.sqrt(delta1))[:, None] * rho + np.sqrt(delta1)[:, None] * lw
    t2 = -dot(g2, SA, g2)
    g3 = (b / np.sqrt(delta2))[:, None] * f0 + np.sqrt(delta2)[:, None] * lw
    t3 = -dot(g3, SA, g3)
    t4 = b * b * (dot(f0, SA, f0) / delta2 - n * f02)
    L2 = t1 + t2 + t3 + t4
    scale = (abs(a * a * lam1 * rho2) + 2.0 * a * a * n * rho2
             + abs(asq_l2) + n * b * b * f02 + 2.0 * abs(b * asq_lf)
             + 2.0 * abs(a * asq_rl)
             + abs(t1) + abs(t2) + abs(t3) + abs(t4))
    return [ChainRecord(L0=l0, L0e=l0e, L1=l1, L2=l2, terms=terms,
                        scale=s, lambda1=float(lam1))
            for l0, l0e, l1, l2, *terms, s in zip(
                *(x.tolist() for x in (L0, L0e, L1, L2, t1, t2, t3, t4,
                                       scale)))]


def chain_sweep(forms, draws=100, seed=0):
    """Seeded random draws of (a, b, w, delta1) for the chain estimate.

    Returns the list of ChainRecords together with the draw parameters;
    a, b and the entries of w are standard normal, delta1 is uniform on
    (0.05, 0.95), from a seed >= 0.  The draws are taken in order, then
    evaluated in one pass: every v0 from one stacked eigensolve of the
    normal moments, every chain line from stacked quadratic forms on the
    Grams.
    """
    if draws < 1:
        raise InvalidParameterError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    dim = len(forms.moments[1])
    params = []
    for _ in range(draws):
        a = float(rng.standard_normal())
        b = float(rng.standard_normal())
        w = rng.standard_normal(dim)
        delta1 = float(rng.uniform(0.05, 0.95))
        params.append({"a": a, "b": b, "w": w.tolist(), "delta1": delta1})
    a, b, delta1 = (np.array([p[key] for p in params])
                    for key in ("a", "b", "delta1"))
    w = np.array([p["w"] for p in params])
    v0, _ = _v0_from_moments(forms.moments, forms.n, 1.0 - delta1)
    records = _chain_records(forms.block("rho")[1:], forms.n, forms.lam1,
                             a, b, w, delta1, v0)
    return records, params
