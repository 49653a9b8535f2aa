"""Initialization and time stepping of the coupled resolved/subscale system.

Each backward-Euler step solves, per Picard iteration with frozen advection
velocity a and frozen tau,

    (δu/dt, v) + b(a, u, v) + nu (∇u, ∇v) + (v, ∇p) - b(a, v, ũ⁺) = (f, v)
    (u, ∇q) + (ũ⁺, ∇q) = 0
    ũ⁺ = (ũⁿ/dt - π⊥(N(a)u + ∇p)) / (1/dt + 1/tau)

with the subscale update substituted in closed form, so the monolithic
system couples only (u, p), one scalar multiplier λ pinning the pressure
mean, and the projection coefficient ζ below.  The update applied after
the final solve reads π⊥(N(a)u + ∇p) off that solve's own ζ, so the
substituted update is exactly the one applied afterwards, and the discrete
energy identity holds to solver roundoff for every converged step -- the
skew transport form vanishes on the diagonal for any frozen advection
field, and the resolved/subscale transport cross-terms cancel.

The projector identities keep assembly cell-local:

    NᵀW π⊥ N = NᵀW N - C(a)ᵀ M⁻¹ C(a)
    NᵀW π⊥ 𝒢 = NᵀW 𝒢 - C(a)ᵀ M⁻¹ G
    𝒢ᵀW π⊥ 𝒢 = K_Q      - Gᵀ    M⁻¹ G

where N maps velocity coefficients to the transport term at quadrature
points, 𝒢 maps pressure coefficients to ∇p there, W is the quadrature
weight, and C(a), G are the standard convection and gradient-coupling
matrices.  The M⁻¹ terms are never formed: the coefficient
ζ = M⁻¹(C(a)u + Gp) of the L² projection π(N(a)u + ∇p) is kept as an
unknown, which gives the sparse augmented system (with β = 1/(1/dt + 1/τ))

    [ M/dt + C + νK + βNᵀWN   G + βNᵀW𝒢   -βCᵀ        ] [u]
    [ Gᵀ - β(NᵀW𝒢)ᵀ          -βK_Q        βGᵀ     m_p ] [p]
    [ C                       G           -M          ] [ζ]
    [                         m_pᵀ                     ] [λ]

Its sparsity pattern depends only on the mesh, so
:func:`build_discretization` builds it once, together with the data
position of every term and a nested-dissection ordering of the grid's
vertices (:func:`_dissect`), each with its unknowns together, and the mean
multiplier last, since its row is dense.  Each Picard iteration fills
the data of that pattern with one ``bincount``.  From one iterate to the
next only the advection terms change, and from one step to the next only
those and τ, so one SuperLU factor serves many steps.  Every solve is
preconditioned defect correction with the factor in use (:func:`_solve`),
y ← y + solve(b − Ay), until the residual falls to ``SWEEP_RTOL`` of
the right-hand side.  A factor is taken (after a symmetric diagonal
scaling) only when there is none to use -- at the first step after
initialization -- or when a solve with the one in use fails; its sweeps
start from zero.  Every other solve starts from the previous solution,
of the step's previous iterate or, extrapolated as below, of the
previous steps, and fails when it spends ``SWEEP_BUDGET`` sweeps, is not
finite or fails the residual gate; its iterate then goes to a fresh
factor, which serves the rest of the step and the steps after it.  The
factor rides on the returned :class:`StarState`, and ``StarState.copy``
drops it.  The initialization projection is the same matrix at dt = 1,
ν = 0, β = 1, a = 0, where ζ = M⁻¹Gξ; its factor is not carried.

Each step starts where the last steps point.  A state keeps the times,
velocities and solve-order solutions of up to ``HISTORY_DEPTH`` = 4
states before it (:class:`History`; the initial state has no solution),
and Picard starts from their Lagrange extrapolation in t to t + dt,
quartic once four steps are taken, in place of uⁿ, which is O(dt) off
uⁿ⁺¹; the first solve starts from the same extrapolation of the
solutions.  A step further ahead than the history reaches back starts
from the state itself.  Only the start moves: the fixed point, the
frozen-advection final solve and the energy identity are the same, and
the benchmark's 300-step manufactured run takes 65% fewer Picard
iterations and 80% fewer sweeps than from the state itself (39% and 54%
with a quadratic start through two states), and three steps in four
take one Picard iterate.  ``StarState.copy`` drops the history.

A step and a run read every setting from one ScenarioConfig, which was
checked when it was made: ``step(state, load, cfg)`` and ``run(cfg)``.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import scenarios
from .diagnostics import energy_ledger_entry
from .errors import (
    InternalError,
    InvariantViolation,
    SolverDivergence,
    SolverNonconvergence,
)
from .fe import (
    advection_factor,
    as_qp_field,
    assemble_gradient_coupling,
    assemble_load,
    build_space,
    linf_norm,
)
from .mesh import build_structured
from .subgrid import (
    advance_subscale,
    compute_tau,
    continuity_pairing,
    orthogonality_defect,
    project_orthogonal,
    residual_field,
    transport_pairing,
)

__all__ = [
    "StarState",
    "History",
    "Discretization",
    "build_discretization",
    "continuity_residual",
    "initialize",
    "step",
    "run",
    "RunResult",
]


#: SuperLU settings for the augmented matrix, factored for the
#: initialization, for the first step and whenever a solve with the factor
#: in use fails (module docstring).  The pattern is already in a
#: fill-reducing order, nested dissection of the grid, so no column
#: permutation is applied, and the threshold keeps a diagonal pivot unless
#: it is ten times smaller than the largest entry of its column, compared
#: after the symmetric diagonal scaling of :func:`_factor`.
SUPERLU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0.1,
                       options={"SymmetricMode": True})

#: correction sweeps a solve may spend with the factor of an earlier
#: iterate or step; a solve that has not reached ``SWEEP_RTOL`` by then
#: refactors its iterate.
SWEEP_BUDGET = 20

#: relative 2-norm residual at which the correction sweeps stop: near
#: roundoff and far below the gate, so that a solve with an earlier
#: factor agrees with a fresh factor's to the accuracy the dense oracles
#: check.
SWEEP_RTOL = 1e-14

#: vertices in a box of the grid that nested dissection cuts no further
DISSECTION_LEAF = 8

#: states before the current one that a step's start is extrapolated
#: through, so that the start is quartic in t
HISTORY_DEPTH = 4


@dataclass
class AugmentedPattern:
    """Fixed CSC pattern of the augmented matrix, in solve order.

    Unknowns are numbered [u, p, ζ, λ] and then permuted: solve-order row
    i is unknown ``perm[i]``, and unknown j is row ``where[j]``.
    ``positions[e]`` is the data slot of term entry e, in the order
    :func:`_system_matrix` lists its weights; entries on eliminated dofs
    point at the spare slot ``nnz``.  ``values`` holds the CSR data of M,
    K, G and K_Q and the pressure means m_p.
    """

    n: int
    nnz: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)
    where: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    values: tuple = field(repr=False)


@dataclass
class Discretization:
    """Spaces, the constant sparse operators, and the augmented pattern."""

    mesh: object
    V: object
    Q: object
    G: object                      # CSR, (phi_i, ∇psi_j)
    GT: object                     # CSR, Gᵀ
    pattern: AugmentedPattern = field(repr=False)

    @property
    def n_u(self):
        return self.V.n_dofs

    @property
    def n_p(self):
        return self.Q.n_scalar


def _csr_coords(mat):
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)), mat.indices


def _dissect(grid, vertices):
    """``vertices``, a box of the grid indices ``grid`` (``Mesh.grid``), in
    nested-dissection order: the two sides of the middle grid plane across
    the box's longest axis, each in this order, then the plane, which
    separates them."""
    if vertices.size <= DISSECTION_LEAF:
        return vertices
    g = grid[vertices]
    x = g[:, np.argmax(np.ptp(g, axis=0))]
    side = np.sign(x - (x.min() + x.max() + 1) // 2)
    return np.concatenate([_dissect(grid, vertices[side < 0]),
                           _dissect(grid, vertices[side > 0]), vertices[side == 0]])


def _build_pattern(V, Q, G):
    """Pattern, data positions and ordering of the augmented matrix."""
    n_u, n_p = V.n_dofs, Q.n_scalar
    p0, z0, lam = n_u, n_u + n_p, 2 * n_u + n_p
    n = lam + 1
    M, K, KQ = V.mass, V.stiffness, Q.stiffness
    rM, cM = _csr_coords(M)
    rK, cK = _csr_coords(K)
    rG, cG = _csr_coords(G)
    rQ, cQ = _csr_coords(KQ)
    pdofs = p0 + np.arange(n_p)
    lams = np.full(n_p, lam)
    # constant terms, in the order _system_matrix lists their weights:
    # M/dt, -M, νK, G, Gᵀ, G (ζ row), βGᵀ (ζ column), -βK_Q, m_p, m_pᵀ
    const = [(rM, cM), (z0 + rM, z0 + cM), (rK, cK), (rG, p0 + cG),
             (p0 + cG, rG), (z0 + rG, p0 + cG), (p0 + cG, z0 + rG),
             (p0 + rQ, p0 + cQ), (pdofs, lams), (lams, pdofs)]

    # cell-local terms: velocity/velocity blocks per component (C + βNᵀWN,
    # C in the ζ rows, -βCᵀ in the ζ columns), then velocity/pressure
    # blocks (βNᵀW𝒢 and its negated transpose); entries on eliminated dofs
    # are masked before the block offsets are added, which would turn -1
    # into a valid index
    d = V.components
    vd, qd = V.cell_vdofs, Q.cell_vdofs                      # (nc, nl, d|1)
    v_ok = vd[:, :, :1] >= 0                                 # per node
    vi, vj, vv_ok = np.broadcast_arrays(
        vd[:, :, None, :], vd[:, None, :, :],
        v_ok[:, :, None, :] & v_ok[:, None, :, :])
    vq, qj, vq_ok = np.broadcast_arrays(
        vd[:, :, None, :], p0 + qd[:, None, :, :],
        v_ok[:, :, None, :] & (qd >= 0)[:, None, :, :])
    cell = [(vi, vj, vv_ok), (z0 + vi, vj, vv_ok), (vj, z0 + vi, vv_ok),
            (vq, qj, vq_ok), (qj, vq, vq_ok)]

    rows = np.concatenate([r for r, _ in const] + [r.ravel() for r, _, _ in cell])
    cols = np.concatenate([c for _, c in const] + [c.ravel() for _, c, _ in cell])
    ok = np.concatenate([np.ones(sum(r.size for r, _ in const), dtype=bool)]
                        + [m.ravel() for _, _, m in cell])
    rows, cols = rows[ok], cols[ok]

    # ordering: the unknowns stably by the nested-dissection rank of their
    # vertex (velocity dofs number the interior vertices in turn, pressure
    # dofs all), so each vertex keeps u, p, ζ; the dense mean row last
    nv = V.mesh.n_vertices
    rank = np.empty(nv, dtype=np.int64)
    rank[_dissect(V.mesh.grid, np.arange(nv))] = np.arange(nv)
    inner = np.repeat(rank[V.node_dof >= 0], d)
    perm = np.argsort(np.concatenate([inner, rank, inner, [nv]]), kind="stable")
    where = np.empty(n, dtype=np.int64)
    where[perm] = np.arange(n)

    keys = where[cols] * n + where[rows]          # column-major: CSC order
    uniq, slot = np.unique(keys, return_inverse=True)
    nnz = uniq.size
    positions = np.full(ok.size, nnz, dtype=np.int64)
    positions[ok] = slot
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(uniq // n, minlength=n))]).astype(np.int32)
    return AugmentedPattern(
        n=n, nnz=nnz, indptr=indptr, indices=(uniq % n).astype(np.int32),
        perm=perm, where=where, positions=positions,
        values=(M.data, K.data, G.data, KQ.data, Q.mean_vector))


def build_discretization(mesh):
    """P1/P1 velocity/pressure spaces, the constant operator set and the
    pattern of the augmented Picard matrix, on a structured mesh."""
    V = build_space(mesh, components=mesh.dim, constraint="zero_trace")
    Q = build_space(mesh, components=1, constraint="zero_mean")
    G = assemble_gradient_coupling(V, Q)
    return Discretization(mesh=mesh, V=V, Q=Q, G=G, GT=G.T.tocsr(),
                          pattern=_build_pattern(V, Q, G))


class History(NamedTuple):
    """Up to ``HISTORY_DEPTH`` states before a StarState, latest first:
    their times (k,), velocities (k, n_u) and, for the first j of them
    that a step produced, their solve-order solutions (j, n)."""

    times: np.ndarray
    velocities: np.ndarray
    solutions: np.ndarray


@dataclass
class StarState:
    """Resolved velocity/pressure coefficients plus the subscale field
    ``tilde``, sampled at the quadrature points of the velocity space:
    shape (n_cells, n_qp, dim).

    The trailing metadata fields describe the step that produced the
    state (relaxation time used, Picard iterations, SuperLU factorizations
    and correction sweeps with an earlier factor, final linearized
    residuals); they are informational, not part of the dynamics.
    ``factor`` is what the next step's linear solves start from, and
    ``history`` where its Picard iteration starts; they change the path
    of the step, not its fixed point or its gated result.
    """

    u: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    tilde: np.ndarray = field(repr=False)
    t: float = 0.0
    disc: Discretization = field(default=None, repr=False)
    tau_used: float = 0.0
    picard_iters: int = 0
    factorizations: int = 0
    sweeps: int = 0
    continuity_residual: float = 0.0
    #: (solve, y): the solve with the step's last SuperLU factor and the
    #: step's last solution in solve order, which precondition and start
    #: the next step's first solve; None after initialization
    factor: tuple = field(default=None, repr=False, compare=False)
    #: the states before this one (:class:`History`); None after
    #: initialization
    history: History = field(default=None, repr=False, compare=False)

    def copy(self):
        """A copy without the carried factor and history, so that
        snapshots hold neither."""
        return replace(self, u=self.u.copy(), p=self.p.copy(),
                       tilde=self.tilde.copy(), factor=None, history=None)


# ---------------------------------------------------------------------------
# low-level helpers
# ---------------------------------------------------------------------------

def _cell_blocks(V, Q, n_fac):
    """Cell-local C(a), NᵀWN and NᵀW𝒢 from the advection factor of a frozen
    advection velocity a: (nc, nl, nl), (nc, nl, nl) and (nc, nl, nl_q, dim)."""
    tab = V.tabulation()
    wn_t = np.swapaxes(tab["weights"][:, :, None] * n_fac, 1, 2)   # (nc, nl, nq)
    grad_q = Q.tabulation(V.quad_order)["grad"]                  # (nc, nq, nl_q, dim)
    nc, nq, nl_q, dim = grad_q.shape
    conv = np.swapaxes(wn_t @ tab["phi"], 1, 2)
    nn = wn_t @ n_fac
    ng = (wn_t @ grad_q.reshape(nc, nq, nl_q * dim)).reshape(nc, -1, nl_q, dim)
    return conv, nn, ng


def _system_matrix(disc, dt, nu, beta, n_fac):
    """The augmented matrix (module docstring) in the pattern's solve order,
    for the advection factor ``n_fac`` of the frozen advection velocity."""
    pat = disc.pattern
    m, k, g, kq, mp = pat.values
    conv, nn, ng = _cell_blocks(disc.V, disc.Q, n_fac)
    # the velocity/velocity blocks are the same for every component
    vv = np.stack([conv + beta * nn, conv, -beta * conv])
    vv = np.broadcast_to(vv[..., None], vv.shape + (disc.V.components,))
    weights = np.concatenate([
        m / dt, -m, nu * k, g, g, g, beta * g, -beta * kq, mp, mp,
        vv.ravel(),
        (beta * ng).ravel(), (-beta * ng).ravel(),
    ])
    data = np.bincount(pat.positions, weights, minlength=pat.nnz + 1)[:pat.nnz]
    return sp.csc_matrix((data, pat.indices, pat.indptr), shape=(pat.n, pat.n))


def _factor(A, what):
    """SuperLU factor of ``A`` after a symmetric diagonal scaling; returns
    the solve with ``A``.

    The scaling D = diag(|A_ii|^(-1/2)), 1 where A_ii = 0, gives the
    scaled matrix a unit diagonal and coupling entries of order one at
    every mesh size.  Unscaled, the mass diagonal (about h^d / dt) can fall
    below a tenth of the gradient coupling in its column (about h^(d-1)),
    as it does in the initialization matrix (dt = 1): SuperLU then pivots
    off the diagonal, and the fill grows (10.8 times at 2-D n = 64).
    """
    d = np.abs(A.diagonal())
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    scaled = sp.csc_matrix((A.data * s[A.indices] * s[cols], A.indices,
                            A.indptr), shape=A.shape)
    try:
        lu = spla.splu(scaled, **SUPERLU_OPTIONS)
    except RuntimeError as exc:
        raise InternalError(f"{what}: factorization failed: {exc}")
    return lambda b: s * lu.solve(s * b)


def _extrapolate(times, values, t):
    """The Lagrange polynomial in time through (``times[i]``,
    ``values[i]``), latest first, evaluated at ``t``: of degree
    len(times) - 1, and ``values[0]`` where ``t`` lies further ahead of
    the latest time than the times reach back, since a polynomial
    extrapolated past the span of its data amplifies their curvature
    (through the first step out of initialization, 50 times as long,
    the linear start took one Picard iteration and one factor more)."""
    if t - times[0] > times[0] - times[-1]:
        return values[0]
    weights = [math.prod((t - s) / (ti - s) for j, s in enumerate(times) if j != i)
               for i, ti in enumerate(times)]
    return np.asarray(weights) @ values


def _step_start(state, t):
    """The Picard start at ``t`` and the carried factor with its start:
    extrapolations through ``state`` and its history of the velocities
    and, when ``state`` carries a factor, of the solve-order solutions of
    those states that have one."""
    u, carried, h = state.u, state.factor, state.history
    if h is None:
        return u.copy(), carried
    times = np.concatenate([[state.t], h.times])
    u = _extrapolate(times, np.vstack([u, h.velocities]), t)
    if carried is not None:
        solve, y = carried
        j = len(h.solutions)
        carried = solve, _extrapolate(times[:j + 1], np.vstack([y, *h.solutions]), t)
    return u, carried


def _history_after(state):
    """The history of the state a step from ``state`` returns."""
    keep = HISTORY_DEPTH - 1
    h = state.history
    times, velocities = [state.t], [state.u]
    solutions = [] if state.factor is None else [state.factor[1]]
    if h is not None:
        times += list(h.times[:keep])
        velocities += list(h.velocities[:keep])
        if solutions:
            solutions += list(h.solutions[:keep])
    return History(np.array(times), np.array(velocities), np.array(solutions))


def _residual_ok(A, b, y, r, linear_tol):
    """The residual gate on r = b - Ay: max|r| within ``linear_tol`` of
    the size of the terms that make it up.  Returns (passed, max|r|)."""
    r = np.abs(r).max()
    scale = np.abs(A.data).max() * max(np.abs(y).max(), 1e-300) + np.abs(b).max()
    return bool(r <= linear_tol * max(scale, 1e-300)), r


def _correct(A, b, solve, y):
    """Preconditioned defect correction on A y = b from ``y``, in solve
    order: sweeps y ← y + solve(b - Ay) until |b - Ay|₂ is at most
    ``SWEEP_RTOL`` |b|₂ or not finite, for at most ``SWEEP_BUDGET``
    sweeps.  Returns the last iterate, its residual, the number of sweeps
    and whether the tolerance was met."""
    target = SWEEP_RTOL * np.linalg.norm(b)
    r = b - A @ y
    sweeps = 0
    while np.linalg.norm(r) > target and sweeps < SWEEP_BUDGET:
        y = y + solve(r)
        r = b - A @ y
        sweeps += 1
    return y, r, sweeps, bool(np.linalg.norm(r) <= target)


def _solve(A, b, carried, linear_tol, what):
    """Solve A y = b in solve order.

    ``carried`` is None or (solve, y0): the solve with the factor of an
    earlier iterate or step and the solution to start from.  With one,
    :func:`_correct` runs from y0 -- Richardson's iteration preconditioned
    with that factor -- and its result is kept when the sweeps meet their
    tolerance and it passes the residual gate.  Otherwise ``A`` is
    factored and :func:`_correct` runs from zero -- the factored solve and
    its iterative refinement -- and its result must pass the gate.
    Returns the solution, what the next solve carries, the number of
    sweeps with the carried factor and whether ``A`` was factored.
    """
    sweeps = 0
    if carried is not None:
        solve, y = carried
        y, r, sweeps, converged = _correct(A, b, solve, y)
        # a finite residual implies a finite solution
        if converged and _residual_ok(A, b, y, r, linear_tol)[0]:
            return y, (solve, y), sweeps, False
    solve = _factor(A, what)
    y, r, _, _ = _correct(A, b, solve, np.zeros_like(b))
    if not np.all(np.isfinite(y)):
        raise SolverDivergence(f"{what}: non-finite solution")
    passed, r = _residual_ok(A, b, y, r, linear_tol)
    if not passed:
        raise InternalError(f"{what}: residual {r:.3e} above tolerance")
    return y, (solve, y), sweeps, True


# ---------------------------------------------------------------------------
# initialization (the coupled projection of the initial datum)
# ---------------------------------------------------------------------------

def initialize(u0, disc):
    """Project the initial velocity onto the constrained composite space.

    Solves the symmetric saddle system

        (u_h, v) + (v, ∇xi)            = (u0, v)
        (u_h, ∇q) - (π⊥∇xi, ∇q)_W      = -(π⊥u0, ∇q)_W     + mean multiplier

    -- the augmented matrix at dt = 1, ν = 0, β = 1, a = 0, whose ζ is
    M⁻¹G xi = π∇xi -- and reconstructs the subscale part
    ũ₀ = π⊥(u0 - ∇xi) = π⊥u0 - ∇xi + ζ pointwise.  The
    returned state satisfies the discrete continuity constraint and the
    subscale orthogonality invariant at solver precision.
    """
    V, Q = disc.V, disc.Q
    n_u, n_p = disc.n_u, disc.n_p
    u0_qp = as_qp_field(V, u0)
    u0_perp = project_orthogonal(u0_qp, V)
    rhs = np.concatenate([
        V.load_from_qp(u0_qp),
        -continuity_pairing(Q, u0_perp),
        np.zeros(n_u + 1),
    ])
    A = _system_matrix(disc, 1.0, 0.0, 1.0, advection_factor(V, np.zeros(n_u)))
    pat = disc.pattern
    y = _solve(A, rhs[pat.perm], None, 1e-10, "initialization solve")[0]
    u_h, xi, zeta = np.split(y[pat.where][:-1], [n_u, n_u + n_p])
    grad_xi = Q.eval_grad_at_qp(xi, V.quad_order)[:, :, 0, :]
    # projected once more: when u0 is itself resolvable the difference is
    # pure roundoff whose resolved FRACTION is O(1), and the state
    # invariant below checks the fraction, not the size
    tilde = project_orthogonal(u0_perp - grad_xi + V.eval_at_qp(zeta), V)

    state = StarState(u=u_h, p=np.zeros(n_p), tilde=tilde, t=0.0, disc=disc)
    _check_state_invariants(state, 1e-10)
    return state


def continuity_residual(state):
    """max_j |(u_h, ∇psi_j) + (ũ_h, ∇psi_j)| over the pressure basis."""
    disc = state.disc
    res = disc.GT @ state.u + continuity_pairing(disc.Q, state.tilde)
    return float(np.abs(res).max(initial=0.0))


def _check_state_invariants(state, linear_tol):
    state.continuity_residual = continuity_residual(state)
    if state.continuity_residual > 10.0 * linear_tol:
        raise InvariantViolation(
            f"continuity residual {state.continuity_residual:.3e} exceeds "
            f"{10.0 * linear_tol:.1e}")
    defect = orthogonality_defect(state.disc.V, state.tilde)
    if defect > 1e-8:
        raise InvariantViolation(
            f"subscale orthogonality defect {defect:.3e} exceeds 1e-8")
    return state


# ---------------------------------------------------------------------------
# one backward-Euler step
# ---------------------------------------------------------------------------

def step(state, load, cfg):
    """Advance one time step; returns a new StarState at t + dt.

    ``load`` is the load vector (f, phi_i) of the forcing, or None when
    there is none.  Every setting comes from the ScenarioConfig ``cfg``:
    dt, nu, the relaxation-time constants (:func:`subgrid.compute_tau`),
    the Picard and linear tolerances, and ``convection``; with
    ``convection=False`` the transport terms are dropped (Stokes regime)
    and the linear system is solved once.

    Picard starts from the Lagrange extrapolation to t + dt through
    ``state`` and the up to ``HISTORY_DEPTH`` states of its history
    (:func:`_step_start`), and the first solve is preconditioned with the
    factor ``state`` carries, if any, from the same extrapolation of the
    solutions; without a history both start from ``state``.  The
    returned state carries the factor of this step and its history.
    """
    disc = state.disc
    V, Q = disc.V, disc.Q
    n_u, n_p = disc.n_u, disc.n_p
    dt = cfg.dt

    tau = compute_tau(cfg, disc.mesh.h_max, linf_norm(V, state.u))
    beta = 1.0 / (1.0 / dt + 1.0 / tau)

    if load is None:
        load = np.zeros(n_u)
    base_rhs_u = load + V.mass @ state.u / dt
    # ũⁿ is fixed for the step: its continuity pairing is too
    rhs_p = -(beta / dt) * continuity_pairing(Q, state.tilde)

    a, carried = _step_start(state, state.t + dt)
    if not cfg.convection:
        a = np.zeros(n_u)
    u_new = p_new = None
    iterations = factorizations = sweeps = 0
    increment = np.inf
    pat = disc.pattern
    what = f"step solve at t={state.t:g}"

    while iterations < cfg.picard_max:
        iterations += 1
        n_fac = advection_factor(V, a)
        A = _system_matrix(disc, dt, cfg.nu, beta, n_fac)

        mom_cross = transport_pairing(V, n_fac, state.tilde)
        rhs = np.concatenate([
            base_rhs_u + (beta / dt) * mom_cross,
            rhs_p,
            np.zeros(n_u + 1),
        ])

        y, carried, spent, factored = _solve(A, rhs[pat.perm], carried,
                                             cfg.linear_tol, what)
        sweeps += spent
        factorizations += factored
        u_new, p_new, zeta = np.split(y[pat.where][:-1], [n_u, n_u + n_p])
        if not cfg.convection:
            break  # system independent of the advection iterate: done
        increment = float(np.linalg.norm(u_new - a) /
                          max(np.linalg.norm(u_new), 1e-300))
        if increment <= cfg.picard_tol:
            break
        a = u_new
    else:
        raise SolverNonconvergence(t=state.t + dt, iterations=iterations,
                                   last_increment=increment)

    # subscale update driven by the SAME frozen-advection residual the
    # monolithic solve eliminated, with its resolved part ζ from that
    # solve -- this is what keeps the step energy identity exact rather
    # than merely picard_tol-accurate
    res_perp = residual_field(V, Q, u_new, p_new, n_fac) - V.eval_at_qp(zeta)
    tilde_new = advance_subscale(V, state.tilde, res_perp, tau, dt)

    new = StarState(
        u=u_new, p=p_new, tilde=tilde_new, t=state.t + dt, disc=disc,
        tau_used=tau, picard_iters=iterations,
        factorizations=factorizations, sweeps=sweeps, factor=carried,
        history=_history_after(state),
    )
    _check_state_invariants(new, cfg.linear_tol)
    return new


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Snapshots (always including the initial state), one energy record
    per step, the discretization and the ScenarioConfig of the run, the
    Picard iterations, factorizations and correction sweeps with an
    earlier factor summed over every step (snapshot or not; the
    initialization's factor is not counted), and the most Picard
    iterations of one step."""

    states: list
    records: list
    disc: Discretization
    config: object
    picard_iters: int = 0
    factorizations: int = 0
    sweeps: int = 0
    max_picard_iters: int = 0


def run(cfg):
    """Execute a ScenarioConfig: initialize, then ceil(T/dt) steps.

    Returns a RunResult; solver failures propagate with the time of the
    step that failed.
    """
    mesh = build_structured(cfg.dim, cfg.n, cfg.box)
    disc = build_discretization(mesh)
    fields = scenarios.fields_for(cfg)
    n_steps = 0 if cfg.T == 0 else int(math.ceil(cfg.T / cfg.dt * (1.0 - 1e-12)))
    load = (None if fields.forcing is None or n_steps == 0
            else assemble_load(disc.V, fields.forcing))

    state = initialize(fields.initial, disc)
    states = [state.copy()]
    records = []
    totals = dict(picard_iters=0, factorizations=0, sweeps=0)
    most = 0
    for k in range(1, n_steps + 1):
        prev = state
        state = step(prev, load, cfg)
        records.append(energy_ledger_entry(prev, state, load, cfg.dt,
                                           state.tau_used, cfg.nu))
        for key in totals:
            totals[key] += getattr(state, key)
        most = max(most, state.picard_iters)
        if k % cfg.snapshot_every == 0 or k == n_steps:
            states.append(state.copy())
    return RunResult(states=states, records=records, disc=disc, config=cfg,
                     max_picard_iters=most, **totals)
