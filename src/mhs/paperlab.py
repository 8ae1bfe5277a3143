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
{rho, f_e.., l_e..}.  ``trial_span`` solves for the ground state rho and
forms the span's Gram matrices for the mass, the stability form and the
|A|^2-weighted mass once; each check is small dense algebra on them.
Only the conjecture probe has another head, the constant 1.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg as sla

from . import spectral
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
class TrialSpan:
    """Ground state (lam1, rho) and the Mm-, B- and SA-Gram forms of the
    coordinate span {rho, f_e.., l_e..} of one mesh and operator set.
    The normal moments of the mesh behind every choice of v0
    (``_normal_moments``) are formed on first use and kept."""

    mesh: object
    ops: object
    lam1: float
    rho: np.ndarray
    labels: tuple
    forms: tuple

    @cached_property
    def moments(self):
        return _normal_moments(self.mesh)


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
# quadrature helpers
# ----------------------------------------------------------------------

def gauss_identities(mesh):
    """Residuals of int l_v = 0, int |A|^2 f_v = 0 and the pair identity
    int (|A|^2 - n) l_w f_v = 0 over all ambient basis directions.

    Sums quad_measure against the quadrature-point fields: exact chart
    samples on a mesh with a source family ("analytic"), flat data
    otherwise ("discrete").
    """
    w, x, nu, asq = (mesh.quad_measure, mesh.quad_points, mesh.quad_nu,
                     mesh.quad_asq)
    n = mesh.surface_dim
    int_l = np.einsum("tq,tqa->a", w, x)
    int_sf = np.einsum("tq,tq,tqa->a", w, asq, nu)
    pair = np.einsum("tq,tq,tqa,tqb->ab", w, asq - n, x, nu)
    return IdentityReport(
        int_l=float(np.abs(int_l).max()),
        int_asq_f=float(np.abs(int_sf).max()),
        pair=float(np.abs(pair).max()),
        area=float(w.sum()),
        mode="discrete" if mesh.source_family is None else "analytic")


def ratio_report(mesh):
    """int |A|^2 divided by n |M| in the curved measure.

    For n = 2 it equals 1 - 2 pi chi / |M| (Gauss equation and
    Gauss-Bonnet): 1 on every minimal torus, 0 on the equator.
    """
    w = mesh.quad_measure
    return float((w * mesh.quad_asq).sum() / (mesh.surface_dim * w.sum()))


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
    vals = _pencil_eigs(B, G, rank_tol)
    return len(vals), int((vals < 0.0).sum())


def _coordinate_span(mesh, head, head_label):
    """Nodal columns and labels of {head, f_e1.., l_e1..}."""
    dim = mesh.vertices.shape[1]
    X = np.column_stack([head, mesh.vertex_nu, mesh.vertices])
    labels = ((head_label,)
              + tuple(f"f_e{a + 1}" for a in range(dim))
              + tuple(f"l_e{a + 1}" for a in range(dim)))
    return X, labels


def _span_forms(ops, X):
    """X^T Mm X, X^T B X and X^T SA X, each symmetrized."""
    forms = [X.T @ (A @ X) for A in (ops.Mm, ops.B, ops.SA)]
    return [0.5 * (F + F.T) for F in forms]


def trial_span(mesh, ops):
    """The TrialSpan every check reads: one eigensolve, one set of forms."""
    lam1, rho = spectral.first_eigfunction(ops)
    X, labels = _coordinate_span(mesh, rho, "rho")
    return TrialSpan(mesh=mesh, ops=ops, lam1=lam1, rho=rho, labels=labels,
                     forms=tuple(_span_forms(ops, X)))


def lemma_check(span):
    """Gram rank of the (2n+5)-function trial set {rho, f's, l's}.

    Full rank certifies the surface is neither totally geodesic nor a
    product torus (those collapse the f's onto constants or the l's).
    Returns (rank, verdict, FormReport).
    """
    G, B, _ = span.forms
    report = FormReport(span.labels, G, B, *pencil_inertia(B, G))
    full = 2 * span.mesh.surface_dim + 5
    verdict = "full_rank" if report.rank == full else "collapsed"
    return report.rank, verdict, report


def _normal_moments(mesh):
    """The 4x4 moments Q_A = int |A|^2 nu nu^T and Q_1 = int nu nu^T.

    Integrated against quad_measure, the curved area element of a chart
    (the flat weights on a mesh without one).  The form minimized by
    v0 is linear in delta2: Q(delta2) = Q_A - n delta2 Q_1.  The
    products go through BLAS, whose blocked sums are more accurate than
    one long einsum accumulation.  Raises unless ||nu|^2 - 1| <= 1e-10
    at every point, which bounds trace Q - int (|A|^2 - n delta2) =
    int (|A|^2 - n delta2)(|nu|^2 - 1) to 1e-10 relative for any delta2.
    """
    nu = mesh.quad_nu.reshape(-1, mesh.quad_nu.shape[-1])
    if np.abs(np.einsum("pa,pa->p", nu, nu) - 1.0).max() > 1e-10:
        raise InvalidParameterError("quadrature normals are not unit")
    w_nu = mesh.quad_measure.reshape(-1, 1) * nu
    Q_A = (mesh.quad_asq.reshape(-1, 1) * w_nu).T @ nu
    Q_1 = w_nu.T @ nu
    return Q_A, Q_1


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
    """choose_v0 on precomputed _normal_moments of an n-surface, for an
    array of delta2: (v0 rows, v0^T Q v0 for each)."""
    delta2 = np.asarray(delta2, dtype=float)
    if not np.all((0.0 < delta2) & (delta2 < 1.0)):
        raise InvalidParameterError("delta2 must lie in (0, 1)")
    Q_A, Q_1 = moments
    Q = Q_A - (n * delta2)[:, None, None] * Q_1
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    v0 = _lowest_direction(Q)
    return v0, np.einsum("pa,pab,pb->p", v0, Q, v0)


def choose_v0(mesh, delta2):
    """Distinguished direction minimizing int (|A|^2 - n delta2) f_v^2.

    Builds the quadratic form Q over the ambient basis from the two
    normal moments and returns a unit vector of its lowest eigenspace
    (canonical when that space is degenerate) together with v0^T Q v0.
    The averaging identity trace Q = int (|A|^2 - n delta2) holds to
    1e-10 relative, by the unit-normal check of _normal_moments.
    """
    v0, value = _v0_from_moments(_normal_moments(mesh), mesh.surface_dim,
                                 [delta2])
    return v0[0], float(value[0])


def _gamma0_form(G, B, v0):
    """FormReport on {rho, l_e1.., f_v0} and its largest pencil eigenvalue.

    G and B are the span forms with head rho.  Since f_v0 is
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


def theorem_check(span, delta1):
    """Hypothesis flags and the sign of the form on {rho, l's, f_v0}.

    delta1 lies in (0, 1) and delta2 is 1 - delta1.  Verdict precedence:
    a totally geodesic surface is excluded, failed hypotheses are
    reported as such, and otherwise the verdict is the sign of the
    largest pencil eigenvalue of (B, G) on the trial space.  The report
    always carries the Rayleigh-Ritz cross-check neg_inertia <= spectral
    Morse index, and the interval of delta1 at which both hypotheses
    hold, [sup |A|^2 / (2n), 1 - ratio] clipped to [0, 1] (None when
    empty, that is when no split of the form works).
    """
    if not (0.0 < delta1 < 1.0):
        raise InvalidParameterError("delta1 must lie in (0, 1)")
    mesh = span.mesh
    delta2 = 1.0 - delta1
    asq_max = float(mesh.quad_asq.max())
    ratio = ratio_report(mesh)
    hyp_integral = ratio <= delta2
    hyp_pointwise = asq_max <= 2.0 * mesh.surface_dim * delta1
    lo = max(asq_max / (2.0 * mesh.surface_dim), 0.0)
    hi = min(1.0 - ratio, 1.0)
    geodesic = asq_max < 1e-12
    v0 = _v0_from_moments(span.moments, mesh.surface_dim, [delta2])[0][0]
    G, B, _ = span.forms
    report, gamma0_max = _gamma0_form(G, B, v0)
    if geodesic:
        verdict = VERDICT_GEODESIC
    elif not (hyp_integral and hyp_pointwise):
        verdict = VERDICT_HYP_FAIL
    elif gamma0_max is not None and gamma0_max < 0:
        verdict = VERDICT_NEGATIVE
    else:
        verdict = VERDICT_NOT_NEGATIVE
    index, _ = spectral.morse_index(span.ops)
    return TheoremReport(
        delta1=float(delta1), delta2=float(delta2),
        hyp_integral=hyp_integral, hyp_pointwise=hyp_pointwise,
        geodesic_flag=geodesic, v0=v0, gamma0_max_eig=gamma0_max,
        verdict=verdict, neg_inertia_gamma0=report.neg_inertia,
        spectral_index=index, rr_consistent=report.neg_inertia <= index,
        delta1_interval=(lo, hi) if lo <= hi else None)


def conjecture_probe(mesh, ops, rank_tol=_DEFAULT_RANK_TOL):
    """Form report on {1, f's, l's} plus the (n+4)-dimensional flag.

    By Sylvester's law the negative inertia equals the largest dimension
    of a subspace on which the stability form is negative definite, so
    the flag records whether such a subspace of dimension n+4 exists in
    this discretization.
    """
    X, labels = _coordinate_span(mesh, np.ones(mesh.num_vertices), "one")
    G, B, _ = _span_forms(ops, X)
    report = FormReport(labels, G, B, *pencil_inertia(B, G, rank_tol))
    return report, report.neg_inertia >= mesh.surface_dim + 4


def _chain_records(forms, n, lam1, a, b, w, delta1, v0):
    """The chain lines for f = a rho + l_w + b f_v0 on the span forms,
    one ChainRecord per row of a, b, w, delta1 and v0.

    L0 is the direct value, L0e its integral expansion, L1 substitutes
    lambda1 <= -2n, and the completed square L2 equals L1 exactly.
    Every integral is u^T F v on span coefficient vectors, stacked over
    the draws.
    """
    G, B, SA = forms
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


def chain_sweep(span, draws=100, seed=0):
    """Seeded random draws of (a, b, w, delta1) for the chain estimate.

    Returns the list of ChainRecords together with the draw parameters;
    a, b and the entries of w are standard normal, delta1 is uniform on
    (0.05, 0.95), from a seed >= 0.  The draws are taken in order, then
    evaluated in one pass: every v0 from one stacked eigensolve of the
    span's normal moments, every chain line from stacked forms on the
    span, so no draw touches a quadrature point or a nodal vector.
    """
    if draws < 1:
        raise InvalidParameterError(f"draws must be >= 1, got {draws}")
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    dim = span.mesh.vertices.shape[1]
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
    n = span.ops.n
    v0, _ = _v0_from_moments(span.moments, n, 1.0 - delta1)
    records = _chain_records(span.forms, n, span.lam1, a, b, w, delta1, v0)
    return records, params
