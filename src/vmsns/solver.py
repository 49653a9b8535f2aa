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
:func:`build_discretization` builds it once, together with a
nested-dissection ordering of the grid's vertices (:func:`_dissect`),
each with its unknowns together, and with one sparse assembly operator
F.  The mean multiplier λ comes just before the last pressure dof, so no
pivot is zero (with λ last, the pressure constant would make the last
pressure pivot zero) and SuperLU factors without pivoting.  Each Picard
iteration lists every value of the matrix once, in a vector v: M/dt, M,
νK, G, βG, βK_Q, m_p and per cell C + βNᵀWN, C, βC and βNᵀW𝒢.  F has a
±1 entry for each slot and each value that goes into it, so the copies
per velocity component and the signs live in F, and the pattern's data
is the one product F v (the precomputed-index assembly of Cuvelier,
Japhet & Scarella, BIT Numer. Math. 2016).  From one iterate to the
next only the advection terms change, and from one step to the next only
those and τ, so one SuperLU factor serves many steps.  Every solve is
preconditioned defect correction with the factor in use (:func:`_solve`),
y ← y + solve(b − Ay), until the residual falls to a tolerance relative
to the right-hand side in the 2-norm.  A factor is taken only when there
is none to use -- at the first step after initialization -- or when a
solve with the one in use fails; its sweeps start from zero and run to
``SWEEP_RTOL``.  Every
other solve starts from the previous solution, of the step's previous
iterate or, extrapolated as below, of the previous steps, and fails when
it spends ``SWEEP_BUDGET`` sweeps, is not finite or fails the residual
gate; its iterate then goes to a fresh factor, which serves the rest of
the step and the steps after it.  The factor rides on the returned
:class:`StarState`, and ``StarState.copy`` drops it.  The
initialization projection is the same matrix at dt = 1, ν = 0, β = 1,
a = 0, where ζ = M⁻¹Gξ; its factor is not carried.

Only the last Picard iterate's solve enters the subscale update and the
energy identity, so only it is swept to ``SWEEP_RTOL``.  The solve of an
iterate that may not be the last stops at ``LOOSE_RTOL`` (a forcing term
of the inexact Newton methods of Eisenstat & Walker, SIAM J. Sci.
Comput. 1996).  When the iterate's increment then meets ``picard_tol``,
or its loose solution fails the residual gate, the sweeps go on with the
same factor to ``SWEEP_RTOL`` from the residual in hand, and the
increment is taken again from where they end.  A step's first iterate is
solved loosely only when the step before took more than one iterate.  On
the benchmark's 2-D n = 24 vortex the sweeps fall from 56 to 35 over
four steps, with the same 17 Picard iterations.

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
from functools import cached_property
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
    VmsnsError,
)
from .fe import (
    advection_factor,
    as_qp_field,
    assemble_load,
    equal_order_pair,
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


#: SuperLU settings for the augmented matrix (module docstring).  Its
#: pattern is in a fill-reducing order without zero pivots, so neither
#: columns nor rows are permuted, and the sweeps of :func:`_correct` refine
#: what a small pivot costs (static pivoting, Li & Demmel, SC 1998).
SUPERLU_OPTIONS = dict(permc_spec="NATURAL", diag_pivot_thresh=0)

#: correction sweeps a solve may spend with the factor of an earlier
#: iterate or step; a solve that has not reached ``SWEEP_RTOL`` by then
#: refactors its iterate.
SWEEP_BUDGET = 20

#: relative 2-norm residual at which the correction sweeps stop: near
#: roundoff and far below the gate, so that a solve with an earlier
#: factor agrees with a fresh factor's to the accuracy the dense oracles
#: check.
SWEEP_RTOL = 1e-14

#: relative 2-norm residual at which the correction sweeps of a Picard
#: iterate that may not be the last of its step stop (:func:`_solve`).
#: Over the dense Schur oracle's test cases a step then deviates from the
#: oracle by at most 1.6e-11 (9.4e-13 with every solve at ``SWEEP_RTOL``),
#: and by 4.2e-10 at 1e-9, past the oracle's 1e-10.
LOOSE_RTOL = 1e-10

#: vertices in a box of the grid that nested dissection cuts no further
DISSECTION_LEAF = 8

#: states before the current one that a step's start is extrapolated
#: through, so that the start is quartic in t
HISTORY_DEPTH = 4


@dataclass
class AugmentedPattern:
    """Fixed CSC pattern of the augmented matrix, in solve order, and the
    operator that fills its data.

    Unknowns are numbered [u, p, ζ, λ] and then permuted: solve-order row
    i is unknown ``perm[i]``, and unknown j is row ``where[j]``.
    ``assembly`` is the sparse (nnz, n_values) operator F of
    :func:`_system_matrix`: the CSC data is F v, where v lists each value
    of the matrix once, and F's ±1 entries put every value into each of
    its slots, copies per velocity component and signs included.
    ``values`` holds the CSR data of M, K, G and K_Q and the pressure
    means m_p, and ``blocks`` the slice of v that each block of values
    fills, in the order :func:`_augmented_entries` lists them.
    """

    n: int
    nnz: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)
    where: np.ndarray = field(repr=False)
    assembly: object = field(repr=False)
    values: tuple = field(repr=False)
    blocks: tuple = field(repr=False)


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


def _stable_order(keys, bound):
    """The stable sort order of the nonnegative integers ``keys`` below
    ``bound``, as int32 positions: one pass per 16-bit digit, least
    significant first, each a stable sort of the digits in the order so
    far, which numpy does by a radix sort in linear time.  A pass holds
    the digits twice and its argsort beside the order."""
    order = np.arange(keys.size, dtype=np.int32)
    digit = np.empty(keys.size, dtype=np.uint16)
    for shift in range(0, int(bound - 1).bit_length(), 16):
        np.right_shift(keys, shift, out=digit, casting="unsafe")    # modulo 2¹⁶
        order = order[np.argsort(np.take(digit, order), kind="stable")]
    return order


def _solve_order(V, Q):
    """The augmented matrix's solve order: ``perm`` and its inverse
    ``where``.  The unknowns go stably by the nested-dissection rank of
    their vertex (velocity dofs number the interior vertices in turn,
    pressure dofs all), so each vertex keeps u, p, ζ; the mean multiplier
    goes just before the last pressure dof, so that no pivot of the factor
    is zero."""
    n_u, n_p = V.n_dofs, Q.n_scalar
    lam = 2 * n_u + n_p
    nv = V.mesh.n_vertices
    rank = np.empty(nv, dtype=np.int64)
    rank[_dissect(V.mesh.grid, np.arange(nv))] = np.arange(nv)
    inner = np.repeat(rank[V.node_dof >= 0], V.components)
    perm = np.argsort(np.concatenate([inner, rank, inner]), kind="stable")
    perm = np.insert(perm, np.flatnonzero((perm >= n_u) & (perm < n_u + n_p))[-1], lam)
    where = np.empty(lam + 1, dtype=np.int64)
    where[perm] = np.arange(lam + 1)
    return perm, where


def _augmented_entries(V, Q, G, where):
    """Every entry of the augmented matrix, in the order each slot sums
    them: its CSC key (column × n + row, in solve order), the index in v
    of its value and its sign, one array each; and the boundaries in v of
    the value blocks."""
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
    d = V.components
    vd, qd = V.cell_vdofs, Q.cell_vdofs                      # (nc, nl, d|1)
    nc, nl, nl_q = vd.shape[0], vd.shape[1], qd.shape[1]

    # the value blocks of _system_matrix, each value once: M/dt, M, νK, G,
    # βG, βK_Q, m_p, then per cell C + βNᵀWN, C, βC (nc, nl, nl) and
    # βNᵀW𝒢 (nc, nl, nl_q, dim)
    n_vv, n_vq = nc * nl * nl, nc * nl * nl_q * d
    sizes = [M.nnz, M.nnz, K.nnz, G.nnz, G.nnz, KQ.nnz, n_p, n_vv, n_vv, n_vv, n_vq]
    start = np.cumsum([0] + sizes)

    # the cell-local entries on no eliminated dof, with their value in
    # their block: velocity/velocity per component, then velocity/pressure.
    # The masks are taken before the block offsets are added, which would
    # turn -1 into a valid index
    v_ok = vd[:, :, :1] >= 0                                 # per node
    *vv, ok = np.broadcast_arrays(vd[:, :, None, :], vd[:, None, :, :],
                                  np.arange(n_vv).reshape(nc, nl, nl, 1),
                                  v_ok[:, :, None, :] & v_ok[:, None, :, :])
    vi, vj, vv_at = (x[ok] for x in vv)
    *vq, ok = np.broadcast_arrays(vd[:, :, None, :], qd[:, None, :, :],
                                  np.arange(n_vq).reshape(nc, nl, nl_q, d),
                                  v_ok[:, :, None, :] & (qd >= 0)[:, None, :, :])
    vq, qj, vq_at = (x[ok] for x in vq)
    qj = p0 + qj

    # the terms (rows, cols, value block, sign, value in the block of each
    # entry; None: the whole block in order), in the order each slot sums
    # them: the constant blocks M/dt, -M, νK, G, Gᵀ, G (ζ rows), βGᵀ (ζ
    # column), -βK_Q, m_p, m_pᵀ; the velocity/velocity blocks (C + βNᵀWN,
    # C in the ζ rows, -βCᵀ in the ζ columns), then the velocity/pressure
    # blocks (βNᵀW𝒢 and its negated transpose)
    terms = [(rM, cM, 0, 1, None), (z0 + rM, z0 + cM, 1, -1, None),
             (rK, cK, 2, 1, None), (rG, p0 + cG, 3, 1, None),
             (p0 + cG, rG, 3, 1, None), (z0 + rG, p0 + cG, 3, 1, None),
             (p0 + cG, z0 + rG, 4, 1, None), (p0 + rQ, p0 + cQ, 5, -1, None),
             (pdofs, lams, 6, 1, None), (lams, pdofs, 6, 1, None),
             (vi, vj, 7, 1, vv_at), (z0 + vi, vj, 8, 1, vv_at),
             (vj, z0 + vi, 9, -1, vv_at), (vq, qj, 10, 1, vq_at),
             (qj, vq, 10, -1, vq_at)]

    total = sum(rows.size for rows, *_ in terms)
    keys = np.empty(total, dtype=np.int64)
    index = np.empty(total, dtype=np.int32)
    sign = np.empty(total, dtype=np.int8)
    a = 0
    for rows, cols, block, s, at in terms:
        b = a + rows.size
        np.multiply(where[cols], n, out=keys[a:b])    # column-major: CSC order
        keys[a:b] += where[rows]
        index[a:b] = start[block] + (np.arange(rows.size) if at is None else at)
        sign[a:b] = s
        a = b
    return keys, index, sign, start


def _build_pattern(V, Q, G):
    """Pattern, assembly operator and ordering of the augmented matrix.
    The build holds one array each of the entries' keys, value indices
    and signs, and beside them the sort's order and one radix pass."""
    perm, where = _solve_order(V, Q)
    n = perm.size
    keys, index, sign, start = _augmented_entries(V, Q, G, where)
    order = _stable_order(keys, n * n)    # each slot's terms in list order
    # indexing casts the int32 positions in chunks, where np.take would
    # copy them all to intp first: the sorted keys stay below the passes'
    # peak
    keys = keys[order]
    starts = np.empty(keys.size, dtype=bool)              # a slot starts
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    del starts
    uniq = keys[first]
    nnz = uniq.size
    first = np.append(first, keys.size).astype(np.int32)
    del keys
    index = np.take(index, order)
    sign = np.take(sign, order).astype(np.float64)
    del order
    assembly = sp.csr_matrix((sign, index, first), shape=(nnz, start[-1]))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(uniq // n, minlength=n))]).astype(np.int32)
    return AugmentedPattern(
        n=n, nnz=nnz, indptr=indptr, indices=(uniq % n).astype(np.int32),
        perm=perm, where=where, assembly=assembly,
        values=(V.mass.data, V.stiffness.data, G.data, Q.stiffness.data,
                Q.mean_vector),
        blocks=tuple(slice(a, b) for a, b in zip(start[:-1].tolist(),
                                                 start[1:].tolist())))


def build_discretization(mesh):
    """P1/P1 velocity/pressure spaces, the constant operator set and the
    pattern of the augmented Picard matrix, on a structured mesh."""
    V, Q, G = equal_order_pair(mesh)
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

    @cached_property
    def tilde_pairing(self):
        """(ũ, ∇ψ_j) over the pressure basis: computed once per state, by
        the continuity check of the step that makes it and read again by
        the step from it."""
        return continuity_pairing(self.disc.Q, self.tilde)

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
    grad_q = Q.tabulation()["grad"]                              # (nc, nq, nl_q, dim)
    nc, nq, nl_q, dim = grad_q.shape
    conv = np.swapaxes(wn_t @ tab["phi"], 1, 2)
    nn = wn_t @ n_fac
    ng = (wn_t @ grad_q.reshape(nc, nq, nl_q * dim)).reshape(nc, -1, nl_q, dim)
    return conv, nn, ng


def _system_matrix(disc, dt, nu, beta, n_fac):
    """The augmented matrix (module docstring) in the pattern's solve order,
    for the advection factor ``n_fac`` of the frozen advection velocity:
    its data is the pattern's assembly operator applied to the values, in
    the blocks :func:`_augmented_entries` lists."""
    pat = disc.pattern
    m, k, g, kq, mp = pat.values
    conv, nn, ng = _cell_blocks(disc.V, disc.Q, n_fac)
    values = np.empty(pat.assembly.shape[1])
    m_dt, m_, nu_k, g_, beta_g, beta_kq, mp_, cbn, c, beta_c, beta_ng = (
        values[s] for s in pat.blocks)
    np.divide(m, dt, out=m_dt)
    m_[:] = m
    np.multiply(k, nu, out=nu_k)
    g_[:] = g
    np.multiply(g, beta, out=beta_g)
    np.multiply(kq, beta, out=beta_kq)
    mp_[:] = mp
    cbn = cbn.reshape(conv.shape)
    np.multiply(nn, beta, out=cbn)
    np.add(conv, cbn, out=cbn)                                  # C + βNᵀWN
    c.reshape(conv.shape)[...] = conv
    np.multiply(conv, beta, out=beta_c.reshape(conv.shape))
    np.multiply(ng, beta, out=beta_ng.reshape(ng.shape))
    return sp.csc_matrix((pat.assembly @ values, pat.indices, pat.indptr),
                         shape=(pat.n, pat.n))


def _factor(A, what):
    """SuperLU factor of ``A`` in the pattern's order, without pivoting;
    returns the solve with ``A``."""
    with InternalError.from_factorization(f"{what}: factorization failed"):
        return spla.splu(A, **SUPERLU_OPTIONS).solve


def _lagrange_weights(times, t):
    """The weights at ``t`` of the Lagrange polynomial in time through
    values at ``times``, latest first: of degree len(times) - 1, and None
    where ``t`` lies further ahead of the latest time than the times reach
    back, since a polynomial extrapolated past the span of its data
    amplifies their curvature (through the first step out of
    initialization, 50 times as long, the linear start took one Picard
    iteration and one factor more); the latest value is then the
    extrapolation."""
    if t - times[0] > times[0] - times[-1]:
        return None
    return np.asarray([math.prod((t - s) / (ti - s) for j, s in enumerate(times) if j != i)
                       for i, ti in enumerate(times)])


def _extrapolate(times, values, t, weights=None):
    """The Lagrange extrapolation to ``t`` through (``times[i]``,
    ``values[i]``), latest first (:func:`_lagrange_weights`, which
    ``weights`` holds when given)."""
    if weights is None:
        weights = _lagrange_weights(times, t)
    return values[0] if weights is None else weights @ values


def _step_start(state, t):
    """The Picard start at ``t``, the carried factor with its start, and
    the history of the state a step from ``state`` returns.

    The starts are extrapolations through ``state`` and its history (an
    empty one after initialization, so that the start is ``state``) of
    the velocities and, when ``state`` carries a factor, of the
    solve-order solutions of those states that have one; the weights are
    taken once when both run through the same times.  The new history is
    the first ``HISTORY_DEPTH`` rows of the same stacks."""
    u, carried = state.u, state.factor
    h = state.history or History(np.empty(0), np.empty((0, u.size)), ())
    ys = [] if carried is None else [carried[1]]
    times = np.concatenate([[state.t], h.times])
    velocities = np.vstack([u, h.velocities])
    weights = _lagrange_weights(times, t)
    u = _extrapolate(times, velocities, t, weights)
    solutions = np.vstack([*ys, *h.solutions]) if ys else np.array([])
    if carried is not None:
        j = len(solutions)
        carried = carried[0], _extrapolate(times[:j], solutions, t,
                                           weights if j == len(times) else None)
    return u, carried, History(times[:HISTORY_DEPTH], velocities[:HISTORY_DEPTH],
                               solutions[:HISTORY_DEPTH])


def _residual_ok(a_max, b, y, r, linear_tol):
    """The residual gate on r = b - Ay: max|r| within ``linear_tol`` of
    the size of the terms that make it up, where ``a_max`` is max|A|, the
    largest entry of A.  Returns (passed, max|r|)."""
    r = np.abs(r).max()
    scale = a_max * max(np.abs(y).max(), 1e-300) + np.abs(b).max()
    return bool(r <= linear_tol * max(scale, 1e-300)), r


def _correct(A, b, solve, y, rtol, r=None):
    """Preconditioned defect correction on A y = b from ``y``, in solve
    order: sweeps y ← y + solve(b - Ay) until |b - Ay|₂ is at most
    ``rtol`` |b|₂ or not finite, for at most ``SWEEP_BUDGET`` sweeps.
    ``r`` is the residual b - Ay of ``y`` when the caller has it.
    Returns the last iterate, its residual, the number of sweeps and
    whether the tolerance was met."""
    target = rtol * np.linalg.norm(b)
    if r is None:
        r = b - A @ y
    sweeps = 0
    while np.linalg.norm(r) > target and sweeps < SWEEP_BUDGET:
        y = y + solve(r)
        r = b - A @ y
        sweeps += 1
    return y, r, sweeps, bool(np.linalg.norm(r) <= target)


def _solve(A, b, carried, linear_tol, what, last=None):
    """Solve A y = b in solve order.

    ``carried`` is None or (solve, y0): the solve with the factor of an
    earlier iterate or step and the solution to start from.  With one,
    :func:`_correct` runs from y0 -- Richardson's iteration preconditioned
    with that factor -- and its result is kept when the sweeps meet their
    tolerance and it passes the residual gate.  Otherwise ``A`` is
    factored and :func:`_correct` runs from zero to ``SWEEP_RTOL`` -- the
    factored solve and its iterative refinement -- and its result must
    pass the gate.

    The carried sweeps stop at ``SWEEP_RTOL``; for a Picard iterate that
    may not be the last of its step, ``last`` tells whether a solution is,
    and they stop at ``LOOSE_RTOL`` |b|₂.  That loose solution is kept
    when ``last`` does not hold of it and it passes the gate; otherwise
    the sweeps go on with the same factor to ``SWEEP_RTOL``, from the
    residual in hand, and the gate runs on where they end.

    Returns the solution, what the next solve carries, the number of
    sweeps with the carried factor and whether ``A`` was factored.
    """
    sweeps = 0
    # max|A| for the residual gate, once for every solve with A
    a_max = max(A.data.max(initial=0.0), -A.data.min(initial=0.0))
    if carried is not None:
        solve, y = carried
        rtol = SWEEP_RTOL if last is None else LOOSE_RTOL
        y, r, sweeps, converged = _correct(A, b, solve, y, rtol)
        if converged and last is not None:
            if not last(y) and _residual_ok(a_max, b, y, r, linear_tol)[0]:
                return y, (solve, y), sweeps, False
            # the last iterate, or one the gate fails: on to SWEEP_RTOL
            y, r, more, converged = _correct(A, b, solve, y, SWEEP_RTOL, r)
            sweeps += more
        # a finite residual implies a finite solution
        if converged and _residual_ok(a_max, b, y, r, linear_tol)[0]:
            return y, (solve, y), sweeps, False
    solve = _factor(A, what)
    y, r, _, _ = _correct(A, b, solve, np.zeros_like(b), SWEEP_RTOL)
    if not np.all(np.isfinite(y)):
        raise SolverDivergence(f"{what}: non-finite solution")
    passed, r = _residual_ok(a_max, b, y, r, linear_tol)
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
    grad_xi = Q.eval_grad_at_qp(xi)[:, :, 0, :]
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
    res = disc.GT @ state.u + state.tilde_pairing
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
    rhs_p = -(beta / dt) * state.tilde_pairing

    a, carried, history = _step_start(state, state.t + dt)
    if not cfg.convection:
        a = np.zeros(n_u)
    u_new = p_new = None
    iterations = factorizations = sweeps = 0
    increment = np.inf
    pat = disc.pattern
    velocity = pat.where[:n_u]
    what = f"step solve at t={state.t:g}"

    def increment_of(y):
        """Relative change from the advection iterate a to the velocity
        of the solve-order solution y."""
        u = y[velocity]
        return float(np.linalg.norm(u - a) / max(np.linalg.norm(u), 1e-300))

    def last(y):
        return increment_of(y) <= cfg.picard_tol

    # iterates that may not be the last are solved to LOOSE_RTOL
    # (:func:`_solve`); the first only when the step before took more than
    # one iterate: a step that takes one sweeps the same either way, and
    # would pay for the test of its increment and the second call
    loose = cfg.convection and state.picard_iters > 1

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
                                             cfg.linear_tol, what,
                                             last if loose else None)
        sweeps += spent
        factorizations += factored
        u_new, p_new, zeta = np.split(y[pat.where][:-1], [n_u, n_u + n_p])
        if not cfg.convection:
            break  # system independent of the advection iterate: done
        increment = increment_of(y)
        if increment <= cfg.picard_tol:
            break
        a = u_new
        loose = True
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
        history=history,
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
    initialization's factor is not counted), the most Picard iterations
    of one step, and ``load``, the load vector (f, phi_i) every step
    applied: None without forcing or without steps (T = 0)."""

    states: list
    records: list
    disc: Discretization
    config: object
    picard_iters: int = 0
    factorizations: int = 0
    sweeps: int = 0
    max_picard_iters: int = 0
    load: np.ndarray = field(default=None, repr=False)


def run(cfg):
    """Execute a ScenarioConfig: initialize, then ``cfg.n_steps`` steps.

    Returns a RunResult.  A failure of a step propagates with the time of
    that step, and with the energy records of the steps before it as the
    error's ``records``, so the caller can still write their ledger.
    """
    mesh = build_structured(cfg.dim, cfg.n, cfg.box)
    disc = build_discretization(mesh)
    fields = scenarios.fields_for(cfg)
    load = (None if fields.forcing is None or cfg.n_steps == 0
            else assemble_load(disc.V, fields.forcing))

    state = initialize(fields.initial, disc)
    states = [state.copy()]
    records = []
    totals = dict(picard_iters=0, factorizations=0, sweeps=0)
    most = 0
    for k in range(1, cfg.n_steps + 1):
        prev = state
        try:
            state = step(prev, load, cfg)
        except VmsnsError as exc:
            exc.records = records
            raise
        records.append(energy_ledger_entry(prev, state, load, cfg.dt,
                                           state.tau_used, cfg.nu))
        for key in totals:
            totals[key] += getattr(state, key)
        most = max(most, state.picard_iters)
        if k % cfg.snapshot_every == 0 or k == cfg.n_steps:
            states.append(state.copy())
    return RunResult(states=states, records=records, disc=disc, config=cfg,
                     max_picard_iters=most, load=load, **totals)
