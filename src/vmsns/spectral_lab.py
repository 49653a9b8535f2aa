"""Desk-scale spectral verification of the stability structure behind the
scheme: composite velocity space, fractional norms, norm equivalence on
the discretely divergence-free subspace, inf-sup constants with and
without the subgrid complement, and stability of the constrained
(Leray-type) projection.

The unresolved-scale complement is represented concretely: on each mesh
the resolved space W_h is vector zero-trace degree-1, embedded in the
degree-2 space on the same mesh, and the complement is the L²-orthogonal
complement of the embedding.  This surrogate keeps every operator finite
and dense-solvable while reproducing the structural features the estimates
rely on: exact L²-orthogonality, an h-uniform complement scaling, and a
gradient pairing that sees both components.

Composite ("star") coordinates stack the resolved coefficients (n1 of
them) and orthonormal complement coordinates (m of them); the fractional
scale of index s weighs the complement block by h^(-2s) and the resolved
block through the spectral calculus of the Dirichlet Laplacian pencil
(K1, M1).

Everything on the discretely divergence-free subspace V = {v : Cᵀv = 0},
C = [G1; T_pp], goes through one cached factorization of np-square size
(``_schur``): F = M1⁻¹G1, TT = T_ppᵀT_pp and a Cholesky factor of the
pressure Schur complement S = CᵀM★⁻¹C = G1ᵀF + TT, with M★ =
blockdiag(M1, I) the composite mass, pinned by m_p m_pᵀ along the
constants that C annihilates.  The Leray projection is v - M★⁻¹C r with
(S + m_p m_pᵀ) r = Cᵀv.  The W/V equivalence reduces to an n1-sized
problem: the fields of V with a zero resolved part have quotient exactly
1, and the rest of V is the range of Π_V [I; 0], whose blocks follow from
the same factor.  The inf-sup form reads its complement term from TT.
Nothing of the dimension of V is factored or eigendecomposed.

``build_star_space`` orthonormalises the enriched space with a dense
rank-revealing ``eigh`` of its Gram M_E and a Householder QR of the
embedded resolved block, and forms T_pp = BᵀG_E by applying the QR's
reflectors: neither the complete Q nor the complement basis B is formed.
The report draws its random probes in the coordinates of B, so the
Leray rows of a seeded report depend bit for bit on what fixes B: the
assembly of M2, G2, K_p and J, the M_E ``eigh`` and the reflectors.  With
noise of 1e-15 relative added to every single-matrix ``eigh`` input of
100 rows or more (M_E among them), all six ``leray_stability`` rows of
the seed-0 report at levels (4, 8, 12) moved by 0.01-0.2% while the
other 66 rows held to 1e-8.  What follows the factorization may change
at roundoff: forming T_pp from the reflectors instead of from B moved it
by at most 2.7e-14 relative at n = 12.  The tests pin the assembly (the
edge numbering, the degree-2 boundary nodes and J equal loop oracles
entry for entry, and the seed-0 report at levels (4, 8) must match the
benchmark's recorded rows) and hold T_pp to the explicit B of the
complete QR.  All eigensolves are dense and guarded by a size cap.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ConfigurationError, InternalError, InvariantViolation
from .fe import assemble_gradient_coupling, build_space
from .mesh import extract_edges

__all__ = [
    "MAX_DENSE_DOFS",
    "Spectrum",
    "spectral_decompose",
    "StarSpace",
    "build_star_space",
    "fractional_norm",
    "star_norm",
    "composite_norm",
    "wv_equivalence",
    "infsup_constant",
    "leray_project",
    "leray_star_stability",
    "grad_probe",
    "inverse_inequality_constant",
    "ReportRow",
    "EquivalenceReport",
    "run_equivalence_suite",
    "S_GRID_WV",
    "S_GRID_INFSUP",
    "S_GRID_LERAY",
]

#: dense-eigensolve size guard
MAX_DENSE_DOFS = 3000

#: orthonormality / positivity tolerance for spectra
SPECTRUM_TOL = 1e-10

# s-grids used by the reporting suite (interior of the admissible ranges)
S_GRID_WV = (-0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)
S_GRID_INFSUP = (0.0, 0.25, 0.5, 0.75, 1.0)
S_GRID_LERAY = (0.0, 0.25)


def _sym(a):
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class Spectrum:
    """Generalized eigenpairs A z = lambda M z with M-orthonormal modes.

    eigenvalues ascend and are strictly positive (null modes must be
    dropped at decomposition time); modes are stored columnwise.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    metric: np.ndarray

    def check(self):
        lam = self.eigenvalues
        if lam.size and lam.min() <= 0.0:
            raise InvariantViolation(
                f"spectrum has nonpositive eigenvalue {lam.min():.3e}")
        if np.any(np.diff(lam) < -SPECTRUM_TOL * max(1.0, abs(lam[-1]))):
            raise InvariantViolation("spectrum is not ascending")
        gram = self.modes.T @ self.metric @ self.modes
        defect = np.abs(gram - np.eye(gram.shape[0])).max(initial=0.0)
        if defect > SPECTRUM_TOL:
            raise InvariantViolation(
                f"modes fail metric orthonormality by {defect:.3e}")
        return self

    def fractional_coeffs(self, w, s):
        """Coefficients Λ^{s/2} Zᵀ M w of the fractional calculus."""
        c = self.modes.T @ (self.metric @ w)
        return self.eigenvalues ** (0.5 * s) * c


def spectral_decompose(A, M, drop_null=0):
    """Dense generalized symmetric eigendecomposition with invariants.

    ``drop_null`` removes that many leading (null) modes after verifying
    they are negligible against the first retained eigenvalue.
    """
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    n = A.shape[0]
    if n > MAX_DENSE_DOFS:
        raise ConfigurationError(
            f"dense spectral decomposition capped at {MAX_DENSE_DOFS} DOFs, got {n}")
    try:
        lam, modes = sla.eigh(_sym(A), _sym(M))
    except sla.LinAlgError as exc:
        raise ConfigurationError(
            f"metric matrix is not positive definite: {exc}") from None
    if drop_null:
        if drop_null >= n:
            raise ConfigurationError("cannot drop all modes as null")
        scale = abs(lam[drop_null])
        if np.abs(lam[:drop_null]).max(initial=0.0) > 1e-8 * max(scale, 1.0):
            raise InternalError(
                f"modes declared null are not: {lam[:drop_null + 1]}")
        lam, modes = lam[drop_null:], modes[:, drop_null:]
    return Spectrum(eigenvalues=lam, modes=modes, metric=M).check()


def fractional_norm(w, s, spectrum):
    """Fractional operator norm (Σ_i λ_i^s (z_iᵀ M w)²)^{1/2}."""
    c = spectrum.fractional_coeffs(w, s)
    return float(np.sqrt(c @ c))


def star_norm(w_fe, w_perp, s, h, spectrum):
    """Composite fractional norm of index s:

        ‖(w_fe, w_perp)‖² = ‖w_fe‖²_{s} + h^(-2s) ‖w_perp‖²,

    the block-diagonal evaluation over the resolved spectrum plus the
    rescaled plain norm of the complement coordinates (which are
    L²-orthonormal, so their Euclidean norm is their L² norm).
    """
    w_perp = np.asarray(w_perp, dtype=float)
    fe = fractional_norm(w_fe, s, spectrum)
    return float(np.sqrt(fe * fe + h ** (-2.0 * s) * (w_perp @ w_perp)))


# ---------------------------------------------------------------------------
# star space construction
# ---------------------------------------------------------------------------

@dataclass
class StarSpace:
    """Composite space data on one mesh: resolved block (vector zero-trace
    degree 1, n1 coefficients), complement block (m L²-orthonormal
    coordinates inside the enriched space), and the pressure pairing.

    The enriched space is the continuous degree-2 vector space joined with
    the span of the discrete pressure gradients; coefficient vectors over
    it are (degree-2 coefficients, pressure coefficients) stacks of length
    n2 + np, with the exact linear dependencies (constant fields) removed
    by a rank-revealing orthonormalization.  The complement basis itself
    is not kept: the lab reads the complement only through its gradient
    pairing T_pp (``tests/oracles.py: complement_basis`` rebuilds it).
    """

    mesh: object
    V1: object
    V2: object
    Q: object
    M1: np.ndarray
    K1: np.ndarray
    G1: np.ndarray         # (n1, np) resolved gradient pairing
    T_pp: np.ndarray       # (m, np) complement gradient pairing BᵀG_E
    m_p: np.ndarray        # pressure mean vector (zero-mean multiplier)
    h: float
    velocity: Spectrum     # pencil (K1, M1)
    pressure: Spectrum     # pencil (K_p, M_p), constant mode dropped
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n1(self):
        return self.V1.n_dofs

    @property
    def m(self):
        return self.T_pp.shape[0]

    @property
    def n_star(self):
        return self.n1 + self.m

    def split(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_star,):
            raise ConfigurationError(
                f"star vector must have {self.n_star} entries, got {v.shape}")
        return v[:self.n1], v[self.n1:]


def _embedding(mesh, V1, V2):
    """Nodal interpolation of the degree-1 space into the degree-2 space:
    vertex values carry over, edge nodes average the endpoints.  Columns
    are zero-trace consistent because both spaces eliminate the same
    boundary vertices."""
    edges, _ = extract_edges(mesh.cells)
    nv, ne = mesh.n_vertices, edges.shape[0]
    # per degree-2 node, its one vertex (weight 1) or two endpoints (½ each)
    rows = np.concatenate([V2.vdofs(np.arange(nv)),
                           np.repeat(V2.vdofs(nv + np.arange(ne)), 2, axis=0)], axis=None)
    cols = np.concatenate([V1.vdofs(np.arange(nv)), V1.vdofs(edges)], axis=None)
    weights = np.repeat([1.0, 0.5], [nv * V1.components, 2 * ne * V1.components])
    keep = (rows >= 0) & (cols >= 0)
    J = np.zeros((V2.n_dofs, V1.n_dofs))
    J[rows[keep], cols[keep]] = weights[keep]
    return J


def build_star_space(mesh):
    """Assemble all composite-space operators on one mesh.

    The complement is the L²-orthogonal complement of the embedded
    resolved space inside the enriched space spanned jointly by the
    continuous degree-2 vector fields (no trace constraint — subgrid
    fields do not vanish on the boundary) and the discrete pressure
    gradients.  Including the pressure-gradient directions makes the
    complement contain the orthogonal part of every ∇q_h exactly, which
    is what the fractional inf-sup bound leans on.
    """
    dim = mesh.dim
    V1 = build_space(mesh, degree=1, components=dim, constraint="zero_trace")
    V2 = build_space(mesh, degree=2, components=dim, constraint="none")
    Q = build_space(mesh, degree=1, components=1, constraint="zero_mean")
    n1, n2 = V1.n_dofs, V2.n_dofs
    npres = Q.n_dofs
    if n1 == 0:
        raise ConfigurationError(
            "complement construction needs interior velocity freedom (n >= 2)")
    if n2 + npres > MAX_DENSE_DOFS:
        raise ConfigurationError(
            f"star space has {n2 + npres} enriched DOFs, above the dense cap "
            f"{MAX_DENSE_DOFS}")

    M1 = V1.mass.toarray()
    K1 = V1.stiffness.toarray()
    K_p = Q.stiffness.toarray()
    G1 = assemble_gradient_coupling(V1, Q).toarray()
    G2 = assemble_gradient_coupling(V2, Q).toarray()
    J = _embedding(mesh, V1, V2)

    # Gram matrix of the mixed generating set {degree-2 basis, ∇ψ_k}:
    # (∇ψ_k, ∇ψ_l) is the pressure stiffness and (φ_i, ∇ψ_k) the degree-2
    # gradient pairing, so no new assembly is needed.  The set is exactly
    # rank-deficient (constant fields appear in both halves): strip the
    # null directions with a rank-revealing eigendecomposition into
    # L²-orthonormal coordinates Y.  M_E is dropped once M_E [J; 0] and
    # its symmetrised copy S are formed, and the eigh factors S in place
    # (S is exactly symmetric and Sᵀ is its Fortran-ordered view), so two
    # n_E-square arrays are alive at the eigh, and its λ and Y are bit for
    # bit those of eigh(_sym(M_E)): the Leray rows depend on them.
    M_E = np.block([[V2.mass.toarray(), G2], [G2.T, K_p]])
    G_E = np.vstack([G2, K_p])
    MJ = M_E @ np.vstack([J, np.zeros((npres, n1))])
    S = M_E + M_E.T
    del M_E
    S *= 0.5
    lam_E, Y_E = sla.eigh(S.T, overwrite_a=True)
    del S
    keep = lam_E > 1e-10 * lam_E[-1]
    n_null = int(np.sum(~keep))
    if n_null and lam_E[n_null - 1] > 1e-5 * lam_E[n_null]:
        raise InternalError(
            f"enriched Gram rank cutoff is ambiguous: "
            f"{lam_E[n_null - 1]:.3e} vs {lam_E[n_null]:.3e}")
    # eigenvalues ascend, so the kept modes are the trailing columns
    Y = Y_E[:, n_null:]
    Y /= np.sqrt(lam_E[n_null:])

    # complement of the embedded resolved space: in Y-coordinates the L²
    # geometry is Euclidean, so the trailing columns of the Householder Q
    # of the embedded block Jc are an exactly orthonormal complement
    # basis B = Y Q[:, n1:].  Only T_pp = BᵀG_E = (Qᵀ YᵀG_E)[n1:] is
    # needed, and Qᵀ is applied from the reflectors without forming Q.
    (reflectors, tau), _ = sla.qr(Y.T @ MJ, mode="raw")
    T_pp = _apply_qt(reflectors, tau, Y.T @ G_E)[n1:]

    velocity = spectral_decompose(K1, M1)
    pressure = spectral_decompose(K_p, Q.mass.toarray(), drop_null=1)
    return StarSpace(mesh=mesh, V1=V1, V2=V2, Q=Q, M1=M1, K1=K1, G1=G1,
                     T_pp=T_pp, m_p=Q.mean_vector, h=mesh.h_max,
                     velocity=velocity, pressure=pressure)


def _apply_qt(reflectors, tau, c):
    """Qᵀc for the Q whose Householder reflectors ``geqrf`` returned."""
    dormqr = sla.lapack.dormqr
    work = dormqr("L", "T", reflectors, tau, c, lwork=-1)[1]
    qtc, _, info = dormqr("L", "T", reflectors, tau, c,
                          lwork=int(work[0]), overwrite_c=True)
    if info != 0:
        raise InternalError(f"dormqr failed with info = {info}")
    return qtc


# ---------------------------------------------------------------------------
# fractional norms
# ---------------------------------------------------------------------------

def composite_norm(space, v, s):
    """``star_norm`` over a stacked composite vector of a StarSpace."""
    v_fe, v_perp = space.split(v)
    return star_norm(v_fe, v_perp, s, space.h, space.velocity)


# ---------------------------------------------------------------------------
# divergence constraint through the pressure Schur complement
# ---------------------------------------------------------------------------

def _schur(space):
    """Pressure Schur data of the divergence constraint C = [G1; T_pp]:
    (F, TT, factor) with F = M1⁻¹G1, TT = T_ppᵀT_pp and the Cholesky
    factor of S + m_p m_pᵀ, where S = CᵀM★⁻¹C = G1ᵀF + TT.

    C annihilates the constant pressures, so S is singular along them;
    the pin m_p m_pᵀ lifts that direction, and since every right-hand
    side Cᵀv is orthogonal to the constants, the pinned solve returns the
    zero-mean solution of S r = Cᵀv.  Cached on the space.
    """
    if "schur" not in space._cache:
        F = sla.solve(_sym(space.M1), space.G1, assume_a="pos")
        TT = _sym(space.T_pp.T @ space.T_pp)
        S = _sym(space.G1.T @ F) + TT + np.outer(space.m_p, space.m_p)
        try:
            factor = sla.cho_factor(S, lower=True)
        except sla.LinAlgError as exc:
            raise InternalError(
                f"pinned pressure Schur complement is not positive definite: "
                f"{exc}") from None
        space._cache["schur"] = (F, TT, factor)
    return space._cache["schur"]


# ---------------------------------------------------------------------------
# norm equivalence on the divergence-free subspace
# ---------------------------------------------------------------------------

def _wv_modes(space):
    """Constrained modes of the divergence-free subspace V that carry a
    resolved part, in the blocks the W/V quotient needs.

    The fields of V with a zero resolved part form an eigenspace of the
    constrained form (eigenvalue h⁻²) on which the W/V quotient is exactly
    1; their M★-orthogonal complement in V is the range of
    Y = Π_V [I; 0], whose blocks are I - F X and -T_pp X with
    X = (S + m_p m_pᵀ)⁻¹ G1ᵀ (``_schur``).  Y is M★-orthonormalised
    through its n1 × n1 Gram (rank r), and the constrained form on its
    range is decomposed as U Λ Uᵀ.  Returns (Λ, E, PP, unit): the
    resolved modal coordinates E = Zᵀ M1 P₁ and complement Gram
    PP = P_⊥ᵀP_⊥ of the modes P = Y R U, and the multiplicity
    unit = d - r of the quotient 1, d = n_star - (np - 1) being the
    dimension of V.  Cached.
    """
    if "wv" in space._cache:
        return space._cache["wv"]
    F, TT, factor = _schur(space)
    X = sla.cho_solve(factor, space.G1.T)                 # (np, n1)
    Y1 = np.eye(space.n1) - F @ X
    YpYp = _sym(X.T @ TT @ X)                             # Y_⊥ᵀY_⊥
    g, Vg = sla.eigh(_sym(Y1.T @ space.M1 @ Y1) + YpYp)
    keep = g > SPECTRUM_TOL * g[-1]
    R = Vg[:, keep] / np.sqrt(g[keep])                    # (YR)ᵀM★(YR) = I
    N1 = Y1 @ R
    NpNp = _sym(R.T @ YpYp @ R)
    lam, U = sla.eigh(_sym(N1.T @ space.K1 @ N1) + NpNp / space.h ** 2)
    if lam.min() <= 0:
        raise InvariantViolation(
            f"constrained form is not positive: min eigenvalue {lam.min():.3e}")
    E = space.velocity.modes.T @ (space.M1 @ (N1 @ U))
    PP = _sym(U.T @ NpNp @ U)
    unit = space.n_star - (space.Q.n_dofs - 1) - lam.size
    space._cache["wv"] = (lam, E, PP, unit)
    return space._cache["wv"]


def wv_equivalence(space, s):
    """Extremal ratios between the composite fractional norm restricted to
    the divergence-free subspace V and the subspace's intrinsic fractional
    norm (spectral calculus of the constrained form).

    V splits into two parts that are orthogonal in both norms and
    invariant under the constrained form (``_wv_modes``).  On the fields
    with a zero resolved part the quotient is exactly 1.  On the rest, in
    the constrained modes P with eigenvalues Λ, the intrinsic norm of
    x = P c is ‖Λ^{s/2} c‖ and the composite norm is
    cᵀ(P₁ᵀ W_s P₁ + h^(-2s) P_⊥ᵀP_⊥)c, with W_s the resolved Gram of index
    s, so the extremal quotients there are the extreme eigenvalues of the
    n1-sized symmetric matrix

        Λ^(-s/2) (Eᵀ Λ₁ˢ E + h^(-2s) P_⊥ᵀP_⊥) Λ^(-s/2),   E = Zᵀ M1 P₁.

    Returns (ratio_min, ratio_max) of the squared-norm quotient over both
    parts; the equivalence lemma asserts both stay within
    level-independent bounds for s in the admissible range.
    """
    lam, E, PP, unit = _wv_modes(space)
    lam1 = space.velocity.eigenvalues
    amb = E.T @ (lam1[:, None] ** s * E) + space.h ** (-2.0 * s) * PP
    scale = lam ** (-0.5 * s)
    vals = sla.eigh(_sym(scale[:, None] * amb * scale[None, :]),
                    eigvals_only=True)
    lo, hi = float(vals[0]), float(vals[-1])
    if unit:
        lo, hi = min(lo, 1.0), max(hi, 1.0)
    return lo, hi


# ---------------------------------------------------------------------------
# inf-sup constants
# ---------------------------------------------------------------------------

def infsup_constant(space, s, include_complement=True):
    """Fractional-scale inf-sup constant

        beta(s) = inf_q sup_v (v, ∇q) / (‖v‖_{1-s} ‖q‖_{s}),

    realized as the square root of the smallest generalized eigenvalue of
    the dual-norm Schur form against the pressure fractional metric.  With
    the complement included the constant is bounded below uniformly in h;
    restricted to the resolved block alone it degenerates (the classical
    equal-order failure).
    """
    lam1 = space.velocity.eigenvalues
    Zp = space.pressure.modes
    lamp = space.pressure.eigenvalues
    W = space.velocity.modes.T @ (space.G1 @ Zp)          # (n1, np - 1)
    A = W.T @ (W * lam1[:, None] ** (s - 1.0))
    if include_complement:
        _, TT, _ = _schur(space)
        A += space.h ** (2.0 * (1.0 - s)) * (Zp.T @ TT @ Zp)
    vals = sla.eigh(_sym(A), np.diag(lamp ** s), eigvals_only=True)
    return float(np.sqrt(max(vals[0], 0.0)))


# ---------------------------------------------------------------------------
# constrained projection (Leray-type) and its stability
# ---------------------------------------------------------------------------

def leray_project(space, v):
    """M★-orthogonal projection of a composite vector onto the
    divergence-free subspace; returns (projection, multiplier).

    The projection is u = v - M★⁻¹C r with C = [G1; T_pp], and the
    zero-mean multiplier r solves (S + m_p m_pᵀ) r = Cᵀv through the
    cached factor of the pinned pressure Schur complement (``_schur``):
    one np-sized triangular solve pair and a few products per call.
    """
    F, _, factor = _schur(space)
    v_fe, v_perp = space.split(v)
    r = sla.cho_solve(factor, space.G1.T @ v_fe + space.T_pp.T @ v_perp)
    if not np.all(np.isfinite(r)):
        raise InternalError("constrained projection produced a non-finite multiplier")
    return np.concatenate([v_fe - F @ r, v_perp - space.T_pp @ r]), r


def leray_star_stability(space, v, s):
    """Ratio ‖P v‖_s / ‖v‖_s of the constrained projection in the
    composite fractional norm (exact contraction at s = 0)."""
    u, _ = leray_project(space, v)
    denom = composite_norm(space, v, s)
    if denom == 0.0:
        raise ConfigurationError("stability probe is identically zero")
    return composite_norm(space, u, s) / denom


def grad_probe(space, q):
    """Composite representation of a discrete pressure gradient: the
    resolved Riesz lift M1⁻¹ G1 q stacked with the complement pairing
    coordinates.  The worst-case probe family for projection stability."""
    F, _, _ = _schur(space)
    q = np.asarray(q, dtype=float)
    return np.concatenate([F @ q, space.T_pp @ q])


# ---------------------------------------------------------------------------
# inverse inequality
# ---------------------------------------------------------------------------

def inverse_inequality_constant(space, s):
    """Best constant in ‖w‖_{H¹-scale} <= C h^(s-1) ‖w‖_{s-scale} over the
    resolved block, reported as C(h, s) = h^(1-s) max_i sqrt(1 + λᵢ) / λᵢ^(s/2);
    quasi-uniformity of the mesh family keeps it level-independent."""
    lam = space.velocity.eigenvalues
    return float(space.h ** (1.0 - s)
                 * np.max(np.sqrt(1.0 + lam) / lam ** (0.5 * s)))


# ---------------------------------------------------------------------------
# reporting suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    lemma: str
    s: float
    level: int
    h: float
    value: float
    ratio_min: float = float("nan")
    ratio_max: float = float("nan")


@dataclass(frozen=True)
class EquivalenceReport:
    rows: tuple

    HEADER = ("lemma", "s", "level", "h", "value", "ratio_min", "ratio_max")

    def by_lemma(self, lemma):
        return [r for r in self.rows if r.lemma == lemma]


def _level_rows(dim, n, level, seed, n_probes):
    from .mesh import build_structured

    space = build_star_space(build_structured(dim, n))
    rng = np.random.default_rng(seed + 7919 * level)
    rows = []
    for s in S_GRID_WV:
        lo, hi = wv_equivalence(space, s)
        rows.append(ReportRow("wv_equivalence", s, level, space.h,
                              hi / lo, lo, hi))
    for s in S_GRID_INFSUP:
        rows.append(ReportRow("infsup_star", s, level, space.h,
                              infsup_constant(space, s, include_complement=True)))
        rows.append(ReportRow("infsup_plain", s, level, space.h,
                              infsup_constant(space, s, include_complement=False)))
    probes = [grad_probe(space, rng.standard_normal(space.Q.n_dofs))]
    probes += [rng.standard_normal(space.n_star) for _ in range(n_probes)]
    for s in S_GRID_LERAY:
        ratios = [leray_star_stability(space, v, s) for v in probes]
        rows.append(ReportRow("leray_stability", s, level, space.h,
                              max(ratios), min(ratios), max(ratios)))
    for s in S_GRID_INFSUP:
        rows.append(ReportRow("inverse_inequality", s, level, space.h,
                              inverse_inequality_constant(space, s)))
    return rows


def run_equivalence_suite(levels=(4, 8, 16), dim=2, seed=0, n_probes=5):
    """Evaluate every lemma quantity on a refinement family and collect
    the rows of the equivalence report (one row per lemma, s, level)."""
    rows = [row for level, n in enumerate(levels)
            for row in _level_rows(dim, n, level, seed, n_probes)]
    return EquivalenceReport(rows=tuple(rows))
