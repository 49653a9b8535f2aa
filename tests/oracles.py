"""Independent oracles for the test suite.

Everything here recomputes results the package produces, through a
deliberately different route: plain Python loops per cell, explicit
barycentric solves instead of the vectorized einsum tabulation, a
Legendre-based collapsed-coordinate quadrature instead of the Jacobi
conical rule, and closed-form simplex monomial integrals.  Slow on
purpose; only run on tiny meshes.  The einsum kernels are the same
contractions as the package's sparse transfer operators and
batched-matmul cell kernels, written index by index, and sum cell
vectors into coefficients by ``np.bincount``.  The dense Schur step is
an exception too: it keeps the package's loads and subscale update and differs from the
solver in its linear algebra (projection eliminated, dense LU) and in
the residual that drives the update (the einsum kernel).  The lab
oracles likewise take the package's composite-space operators and differ
in their linear algebra: dense saddle solves and generalized pencils where
the lab goes through its cached divergence-free eigenbasis, and
``complement_basis`` forms the complement basis B by the complete QR
where the lab applies the QR's reflectors.  The data-bound
oracle solves with the dense stiffness where the package factors the
sparse one.  ``step_convection`` is no oracle: it reads the step's own
C(a) off the system matrix, for the tests that hold it to the oracles.
The structured mesh is rebuilt by a Python loop per grid cell, the edge
numbering, the degree-2 boundary nodes and the degree-1 -> degree-2
embedding by dictionary, set and entry loops, and the augmented system's
nested-dissection order is compared with the reverse Cuthill-McKee band
order.  The augmented matrix is also filled by one weight per term,
concatenated and summed into its slots by ``np.bincount``, where the
solver applies its assembly operator to each value once; its pattern is
built again by concatenating one array per term and numpy's stable
argsort, where the solver fills one array of each and sorts by radix
passes; and the step start is taken by one Lagrange extrapolation each
of the velocities and the solutions, with the history rebuilt from lists.  A few helpers only
the tests need (the zero subscale field, the composite mass and form, the
mesh quality report, and the local energy estimator of gate 11 with its
space-time bump) live here too.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.special import roots_legendre

from vmsns import scenarios
from vmsns.errors import ConfigurationError


def rel(a, b, floor=1e-30):
    """Relative deviation with a floor for near-zero references."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), floor)
    return np.abs(a - b).max(initial=0.0) / scale


# ---------------------------------------------------------------------------
# closed-form integrals
# ---------------------------------------------------------------------------

def monomial_integral(powers):
    """∫ over the unit reference simplex of prod x_i^{p_i}:
    p! q! ... / (sum + d)! with d the dimension."""
    d = len(powers)
    num = 1
    for p in powers:
        num *= math.factorial(int(p))
    return num / math.factorial(int(sum(powers)) + d)


# ---------------------------------------------------------------------------
# quadrature (collapsed coordinates, Legendre in every direction)
# ---------------------------------------------------------------------------

def simplex_rule_cartesian(dim, n=10):
    """Quadrature on the reference simplex in cartesian coordinates.

    Tensor Gauss-Legendre on the unit cube pushed through the collapsed
    map, with the Jacobian absorbed into the weights; exact for total
    degree <= 2n - 2 (the Jacobian raises the u-degree by dim - 1).
    """
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if dim == 2:
        u, v = np.meshgrid(x, x, indexing="ij")
        wu, wv = np.meshgrid(w, w, indexing="ij")
        xi = u
        eta = v * (1.0 - u)
        wt = wu * wv * (1.0 - u)
        return np.column_stack([xi.ravel(), eta.ravel()]), wt.ravel()
    if dim == 3:
        u, v, t = np.meshgrid(x, x, x, indexing="ij")
        wu, wv, wt3 = np.meshgrid(w, w, w, indexing="ij")
        xi = u
        eta = v * (1.0 - u)
        zeta = t * (1.0 - u) * (1.0 - v)
        wt = wu * wv * wt3 * (1.0 - u) ** 2 * (1.0 - v)
        return np.column_stack([xi.ravel(), eta.ravel(), zeta.ravel()]), wt.ravel()
    raise ValueError(dim)


# ---------------------------------------------------------------------------
# bases in cartesian reference coordinates (value, gradient)
# ---------------------------------------------------------------------------

def p1_basis(ref):
    """P1 simplex basis at reference points (npt, dim): values (npt, d+1),
    gradients (d+1, dim) (constant)."""
    ref = np.atleast_2d(ref)
    d = ref.shape[1]
    lam0 = 1.0 - ref.sum(axis=1)
    vals = np.column_stack([lam0] + [ref[:, i] for i in range(d)])
    grads = np.zeros((d + 1, d))
    grads[0, :] = -1.0
    grads[1:, :] = np.eye(d)
    return vals, grads


def cell_geometry(mesh, c):
    """(x0, A, detA) of the affine cell map x = x0 + A xi."""
    x = mesh.vertices[mesh.cells[c]]
    x0 = x[0]
    A = (x[1:] - x0).T
    return x0, A, np.linalg.det(A)


def to_reference(mesh, c, pts):
    """Invert the affine map for physical points (npt, dim)."""
    x0, A, _ = cell_geometry(mesh, c)
    return np.linalg.solve(A, (np.atleast_2d(pts) - x0).T).T


# ---------------------------------------------------------------------------
# dense scalar-P1 assembly by per-cell loops
# ---------------------------------------------------------------------------

def _scalar_cells(mesh, rule_n=8):
    """Yield per-cell (dofs would be cells rows), local mass, stiffness."""
    ref, wts = simplex_rule_cartesian(mesh.dim, rule_n)
    vals, grads_ref = p1_basis(ref)
    for c in range(mesh.n_cells):
        _, A, det = cell_geometry(mesh, c)
        gphys = np.linalg.solve(A.T, grads_ref.T).T   # (d+1, dim)
        volfac = abs(det)
        mass = np.einsum("q,qi,qj->ij", wts, vals, vals) * volfac
        stiff = (gphys @ gphys.T) * wts.sum() * volfac
        yield c, vals, gphys, wts, volfac, mass, stiff


def dense_scalar_mass(V):
    assert V.degree == 1 and V.components == 1
    n = V.n_dofs
    M = np.zeros((n, n))
    for c, _, _, _, _, mass, _ in _scalar_cells(V.mesh):
        dofs = V.node_dof[V.cell_nodes[c]]
        for i, gi in enumerate(dofs):
            if gi < 0:
                continue
            for j, gj in enumerate(dofs):
                if gj >= 0:
                    M[gi, gj] += mass[i, j]
    return M


def dense_scalar_stiffness(V):
    assert V.degree == 1 and V.components == 1
    n = V.n_dofs
    K = np.zeros((n, n))
    for c, _, _, _, _, _, stiff in _scalar_cells(V.mesh):
        dofs = V.node_dof[V.cell_nodes[c]]
        for i, gi in enumerate(dofs):
            if gi < 0:
                continue
            for j, gj in enumerate(dofs):
                if gj >= 0:
                    K[gi, gj] += stiff[i, j]
    return K


def dense_vector_mass(V):
    """Vector P1 mass with the interleaved dof layout (scalar*comp + k)."""
    assert V.degree == 1 and V.components == V.mesh.dim
    comp = V.components
    n = V.n_dofs
    M = np.zeros((n, n))
    for c, _, _, _, _, mass, _ in _scalar_cells(V.mesh):
        dofs = V.node_dof[V.cell_nodes[c]]
        for i, gi in enumerate(dofs):
            if gi < 0:
                continue
            for j, gj in enumerate(dofs):
                if gj < 0:
                    continue
                for k in range(comp):
                    M[gi * comp + k, gj * comp + k] += mass[i, j]
    return M


def dense_vector_stiffness(V):
    assert V.degree == 1 and V.components == V.mesh.dim
    comp = V.components
    n = V.n_dofs
    K = np.zeros((n, n))
    for c, _, _, _, _, _, stiff in _scalar_cells(V.mesh):
        dofs = V.node_dof[V.cell_nodes[c]]
        for i, gi in enumerate(dofs):
            if gi < 0:
                continue
            for j, gj in enumerate(dofs):
                if gj < 0:
                    continue
                for k in range(comp):
                    K[gi * comp + k, gj * comp + k] += stiff[i, j]
    return K


def dense_gradient(V, Q, rule_n=8):
    """(phi_i e_k, d_k psi_j) with vector rows, scalar pressure columns."""
    mesh = V.mesh
    comp = V.components
    G = np.zeros((V.n_dofs, Q.n_dofs))
    ref, wts = simplex_rule_cartesian(mesh.dim, rule_n)
    vals, grads_ref = p1_basis(ref)
    for c in range(mesh.n_cells):
        _, A, det = cell_geometry(mesh, c)
        gphys = np.linalg.solve(A.T, grads_ref.T).T
        volfac = abs(det)
        vdofs = V.node_dof[V.cell_nodes[c]]
        qdofs = Q.node_dof[Q.cell_nodes[c]]
        for i, gi in enumerate(vdofs):
            if gi < 0:
                continue
            int_phi = np.sum(wts * vals[:, i]) * volfac
            for j, gj in enumerate(qdofs):
                if gj < 0:
                    continue
                for k in range(comp):
                    G[gi * comp + k, gj] += int_phi * gphys[j, k]
    return G


def eval_p1(V, coeffs, cell, pts_phys):
    """Evaluate a P1 field (and gradient) of V at physical points of a cell.

    Returns (values (npt, comp), gradients (npt, comp, dim)).
    """
    comp = V.components
    ref = to_reference(V.mesh, cell, pts_phys)
    vals, grads_ref = p1_basis(ref)
    _, A, _ = cell_geometry(V.mesh, cell)
    gphys = np.linalg.solve(A.T, grads_ref.T).T
    coeffs = np.asarray(coeffs, dtype=float).reshape(V.n_scalar, comp)
    dofs = V.node_dof[V.cell_nodes[cell]]
    out = np.zeros((ref.shape[0], comp))
    gout = np.zeros((ref.shape[0], comp, V.mesh.dim))
    for i, gi in enumerate(dofs):
        if gi < 0:
            continue
        for k in range(comp):
            out[:, k] += vals[:, i] * coeffs[gi, k]
            gout[:, k, :] += gphys[i][None, :] * coeffs[gi, k]
    return out, gout


def dense_convection(V, a, rule_n=8):
    """Skew-symmetrized transport matrix entries b(a, phi_j e_l, phi_i e_k)."""
    mesh = V.mesh
    comp = V.components
    C = np.zeros((V.n_dofs, V.n_dofs))
    ref, wts = simplex_rule_cartesian(mesh.dim, rule_n)
    vals, grads_ref = p1_basis(ref)
    for c in range(mesh.n_cells):
        x0, A, det = cell_geometry(mesh, c)
        gphys = np.linalg.solve(A.T, grads_ref.T).T
        volfac = abs(det)
        pts = x0 + ref @ A.T
        a_vals, a_grads = eval_p1(V, a, c, pts)
        div_a = np.einsum("qdd->q", a_grads)
        dofs = V.node_dof[V.cell_nodes[c]]
        for j, gj in enumerate(dofs):
            if gj < 0:
                continue
            # n_j(q) = a . grad phi_j + (div a)/2 phi_j  (scalar factor)
            nj = a_vals @ gphys[j] + 0.5 * div_a * vals[:, j]
            for i, gi in enumerate(dofs):
                if gi < 0:
                    continue
                entry = np.sum(wts * vals[:, i] * nj) * volfac
                for k in range(comp):
                    C[gi * comp + k, gj * comp + k] += entry
    return C


def step_convection(disc, a):
    """The C(a) the step assembles, read off its system matrix: the
    velocity block at dt = 1, ν = 0, β = 0 is M + C(a).  Not an oracle
    but the operator under test, which the convection tests hold to
    :func:`dense_convection` and to skew symmetry."""
    from vmsns.fe import advection_factor
    from vmsns.solver import _system_matrix

    A = _system_matrix(disc, 1.0, 0.0, 0.0, advection_factor(disc.V, a))
    where = np.empty_like(disc.pattern.perm)
    where[disc.pattern.perm] = np.arange(where.size)
    vel = where[:disc.n_u]
    return A.tocsr()[vel][:, vel] - disc.V.mass


def dense_load(V, f, rule_n=8):
    """Load vector ∫ f . phi_i e_k for a callable f(x) -> (comp,)."""
    mesh = V.mesh
    comp = V.components
    load = np.zeros(V.n_dofs)
    ref, wts = simplex_rule_cartesian(mesh.dim, rule_n)
    vals, _ = p1_basis(ref)
    for c in range(mesh.n_cells):
        x0, A, det = cell_geometry(mesh, c)
        pts = x0 + ref @ A.T
        fv = np.array([np.asarray(f(p), dtype=float) for p in pts])
        volfac = abs(det)
        dofs = V.node_dof[V.cell_nodes[c]]
        for i, gi in enumerate(dofs):
            if gi < 0:
                continue
            for k in range(comp):
                load[gi * comp + k] += np.sum(wts * vals[:, i] * fv[:, k]) * volfac
    return load


def zero_subscale(V):
    """The identically zero subscale field of V."""
    tab = V.tabulation()
    return np.zeros((V.mesh.n_cells, tab["weights"].shape[1], V.components))


# ---------------------------------------------------------------------------
# residual / cross-term pointwise oracles
# ---------------------------------------------------------------------------

def residual_at_points(V, Q, u, p, cell, pts_phys, advection=None):
    """(a.grad)u + (div a)/2 u + grad p at physical points of one cell."""
    a = u if advection is None else advection
    a_vals, a_grads = eval_p1(V, a, cell, pts_phys)
    u_vals, u_grads = eval_p1(V, u, cell, pts_phys)
    div_a = np.einsum("qdd->q", a_grads)
    conv = (np.einsum("qd,qkd->qk", a_vals, u_grads)
            + 0.5 * div_a[:, None] * u_vals)
    # pressure gradient: P1 scalar on the same mesh
    ref = to_reference(Q.mesh, cell, pts_phys)
    _, grads_ref = p1_basis(ref)
    _, A, _ = cell_geometry(Q.mesh, cell)
    gphys = np.linalg.solve(A.T, grads_ref.T).T
    pc = np.asarray(p, dtype=float)
    dofs = Q.node_dof[Q.cell_nodes[cell]]
    gp = np.zeros((ref.shape[0], Q.mesh.dim))
    for j, gj in enumerate(dofs):
        if gj >= 0:
            gp += np.outer(np.ones(ref.shape[0]), gphys[j]) * pc[gj]
    return conv + gp


def dense_subscale_pairings(V, Q, u, tilde_vals, rule_n=None):
    """Momentum and continuity pairings of a quadrature-point subscale.

    The subscale lives at V's own assembly quadrature points, so this
    oracle re-derives those points per cell and pairs with loops.
    """
    tab = V.tabulation()
    pts_all = tab["points"]
    wts_all = tab["weights"]
    comp = V.components
    momentum = np.zeros(V.n_dofs)
    continuity = np.zeros(Q.n_dofs)
    for c in range(V.mesh.n_cells):
        pts = pts_all[c]
        w = wts_all[c]
        ref = to_reference(V.mesh, c, pts)
        vals, grads_ref = p1_basis(ref)
        _, A, _ = cell_geometry(V.mesh, c)
        gphys = np.linalg.solve(A.T, grads_ref.T).T
        a_vals, a_grads = eval_p1(V, u, c, pts)
        div_a = np.einsum("qdd->q", a_grads)
        tv = tilde_vals[c]
        vdofs = V.node_dof[V.cell_nodes[c]]
        for i, gi in enumerate(vdofs):
            if gi < 0:
                continue
            ni = a_vals @ gphys[i] + 0.5 * div_a * vals[:, i]
            for k in range(comp):
                momentum[gi * comp + k] += np.sum(w * ni * tv[:, k])
        qdofs = Q.node_dof[Q.cell_nodes[c]]
        for j, gj in enumerate(qdofs):
            if gj < 0:
                continue
            continuity[gj] += np.sum(w * (tv @ gphys[j]))
    return momentum, continuity


# ---------------------------------------------------------------------------
# einsum kernels (criterion: the per-cell contractions written as einsum)
# ---------------------------------------------------------------------------
#
# The package evaluates fields and pairs them with the basis by sparse
# transfer operators built from the per-cell tables; these are the same
# contractions of the same tables written index by index, gathered per
# cell and summed into coefficients by ``np.bincount``.

def scatter_add(space, loc):
    """Sum cell-local vectors (nc, n_loc, components) into a coefficient
    vector of ``space`` by ``np.bincount``; eliminated dofs are dropped."""
    keep = space.cell_vdofs >= 0
    return np.bincount(space.cell_vdofs[keep], weights=loc[keep],
                       minlength=space.n_dofs)


def einsum_eval_at_qp(V, coeffs, order=None):
    tab = V.tabulation(order)
    return np.einsum("qi,cik->cqk", tab["phi"], V._cellwise(coeffs))


def einsum_eval_grad_at_qp(V, coeffs, order=None):
    tab = V.tabulation(order)
    return np.einsum("cqid,cik->cqkd", tab["grad"], V._cellwise(coeffs))


def einsum_load_from_qp(V, qp_field, order=None):
    tab = V.tabulation(order)
    loc = np.einsum("cq,qi,cqk->cik", tab["weights"], tab["phi"], qp_field)
    return scatter_add(V, loc)


def einsum_advection_factor(V, a, order=None):
    tab = V.tabulation(order)
    a_qp = einsum_eval_at_qp(V, a, order)
    div_a = np.einsum("cqdd->cq", einsum_eval_grad_at_qp(V, a, order))
    return (np.einsum("cqd,cqid->cqi", a_qp, tab["grad"])
            + 0.5 * div_a[:, :, None] * tab["phi"][None, :, :])


def einsum_cell_blocks(V, Q, n_fac):
    w = V.tabulation()["weights"]
    conv = np.einsum("cq,qi,cqj->cij", w, V.tabulation()["phi"], n_fac)
    nn = np.einsum("cq,cqi,cqj->cij", w, n_fac, n_fac)
    ng = np.einsum("cq,cqi,cqjd->cijd", w, n_fac,
                   Q.tabulation(V.quad_order)["grad"])
    return conv, nn, ng


def einsum_continuity_pairing(Q, qp_field, order=None):
    tab = Q.tabulation(order)
    loc = np.einsum("cq,cqjd,cqd->cj", tab["weights"], tab["grad"], qp_field)
    return scatter_add(Q, loc[:, :, None])


def einsum_transport_pairing(V, n_fac, tilde_vals, order=None):
    w = V.tabulation(order)["weights"]
    return scatter_add(V, np.einsum("cq,cqi,cqk->cik", w, n_fac, tilde_vals))


def einsum_residual_field(V, Q, u, p, order=None, advection=None):
    if order is None:
        order = V.quad_order
    a = u if advection is None else advection
    a_qp = einsum_eval_at_qp(V, a, order)
    div_a = np.einsum("cqdd->cq", einsum_eval_grad_at_qp(V, a, order))
    u_qp = einsum_eval_at_qp(V, u, order)
    grad_u = einsum_eval_grad_at_qp(V, u, order)
    conv = (np.einsum("cqd,cqkd->cqk", a_qp, grad_u)
            + 0.5 * div_a[:, :, None] * u_qp)
    return conv + einsum_eval_grad_at_qp(Q, p, order)[:, :, 0, :]


# ---------------------------------------------------------------------------
# initialization saddle oracle (criterion: dense monolithic solve)
# ---------------------------------------------------------------------------

def _qp_pairings(V, Q, qp_field):
    """Load vector and pressure-gradient pairing of sampled data.

    The data realization (values at V's assembly quadrature points and
    the physical weights) is shared with the package by definition;
    everything downstream -- basis values, gradients, the pairing loops
    -- is recomputed here independently.
    """
    tab = V.tabulation()
    pts_all, wts_all = tab["points"], tab["weights"]
    comp = V.components
    load = np.zeros(V.n_dofs)
    gpair = np.zeros(Q.n_dofs)
    for c in range(V.mesh.n_cells):
        ref = to_reference(V.mesh, c, pts_all[c])
        vals, grads_ref = p1_basis(ref)
        _, A, _ = cell_geometry(V.mesh, c)
        gphys = np.linalg.solve(A.T, grads_ref.T).T
        w = wts_all[c]
        fv = qp_field[c]
        for i, gi in enumerate(V.node_dof[V.cell_nodes[c]]):
            if gi < 0:
                continue
            for k in range(comp):
                load[gi * comp + k] += np.sum(w * vals[:, i] * fv[:, k])
        for j, gj in enumerate(Q.node_dof[Q.cell_nodes[c]]):
            if gj >= 0:
                gpair[gj] += np.sum(w * (fv @ gphys[j]))
    return load, gpair


def dense_initialize(V, Q, u0_qp):
    """Monolithic projection system assembled and solved independently.

    ``u0_qp`` is the initial field sampled at V's assembly quadrature
    points -- the realization both routes share.  Returns (u_h, xi,
    tilde values at those same points).
    """
    M = dense_vector_mass(V)
    G = dense_gradient(V, Q)
    K_q = dense_scalar_stiffness(Q)
    m_p = dense_load(Q, lambda x: np.ones(1))
    S = K_q - G.T @ np.linalg.solve(M, G)

    load_u0, gp_u0 = _qp_pairings(V, Q, u0_qp)
    rhs_q = -(gp_u0 - G.T @ np.linalg.solve(M, load_u0))

    n_u, n_p = V.n_dofs, Q.n_dofs
    n = n_u + n_p + 1
    A = np.zeros((n, n))
    A[:n_u, :n_u] = M
    A[:n_u, n_u:n_u + n_p] = G
    A[n_u:n_u + n_p, :n_u] = G.T
    A[n_u:n_u + n_p, n_u:n_u + n_p] = -S
    A[n_u:n_u + n_p, -1] = m_p
    A[-1, n_u:n_u + n_p] = m_p
    rhs = np.concatenate([load_u0, rhs_q, [0.0]])
    x = np.linalg.solve(A, rhs)
    u_h, xi = x[:n_u], x[n_u:n_u + n_p]

    # subscale: pi_perp(u0 - grad xi) sampled at V's quadrature points
    tab = V.tabulation()
    pts_all = tab["points"]
    nc, nq = pts_all.shape[:2]
    raw = np.zeros((nc, nq, V.components))
    for c in range(nc):
        ref = to_reference(Q.mesh, c, pts_all[c])
        _, grads_ref = p1_basis(ref)
        _, Amap, _ = cell_geometry(Q.mesh, c)
        gphys = np.linalg.solve(Amap.T, grads_ref.T).T
        gxi = np.zeros((nq, V.mesh.dim))
        for j, gj in enumerate(Q.node_dof[Q.cell_nodes[c]]):
            if gj >= 0:
                gxi += gphys[j][None, :] * xi[gj]
        raw[c] = u0_qp[c] - gxi
    # orthogonal part: subtract the L2 projection (dense route)
    load_raw, _ = _qp_pairings(V, Q, raw)
    coarse = np.linalg.solve(M, load_raw)
    tilde = raw.copy()
    for c in range(nc):
        vals_c, _ = eval_p1(V, coarse, c, pts_all[c])
        tilde[c] -= vals_c
    return u_h, xi, tilde


# ---------------------------------------------------------------------------
# explicit composite-operator norm (single-pencil spectral route)
# ---------------------------------------------------------------------------

def _explicit_star_pencil(space):
    """Joint spectrum (lam, Z, M) of the composite operator assembled as
    one pencil: blockdiag(K1, I/h²) against blockdiag(M1, I)."""
    n1, m = space.n1, space.m
    n = n1 + m
    A = np.zeros((n, n))
    A[:n1, :n1] = space.K1
    A[n1:, n1:] = np.eye(m) / space.h ** 2
    M = np.eye(n)
    M[:n1, :n1] = space.M1
    lam, Z = sla.eigh(A, M)
    return lam, Z, M


def explicit_star_norm(space):
    """Assemble the composite operator as one pencil and return a norm
    functional (v, s) -> ||v||_s evaluated through its joint spectrum."""
    lam, Z, M = _explicit_star_pencil(space)

    def norm(v, s):
        c = Z.T @ (M @ np.asarray(v, dtype=float))
        return float(np.sqrt(np.sum(lam ** s * c * c)))

    return norm


# ---------------------------------------------------------------------------
# complement basis by the complete QR
# ---------------------------------------------------------------------------

class ComplementBasis(NamedTuple):
    B: np.ndarray          # (n2 + np, m) complement basis, mixed coefficients
    M_E: np.ndarray        # Gram matrix of the enriched mixed basis
    G_E: np.ndarray        # (n2 + np, np) enriched-basis pressure pairing
    J: np.ndarray          # (n2, n1) embedding of W_h into the degree-2 space


def complement_basis(space):
    """The complement basis B of a star space, formed explicitly: the
    enriched Gram M_E and pairing G_E from the package's degree-2 mass and
    gradient coupling and the pressure stiffness, the loop embedding J,
    the rank-revealing ``eigh`` of M_E into L²-orthonormal coordinates Y,
    and B = Y Q[:, n1:] from the complete QR of the embedded block Yᵀ M_E
    [J; 0].  The lab forms only T_pp = BᵀG_E, from the QR's reflectors."""
    from vmsns.fe import assemble_gradient_coupling

    V1, V2, Q = space.V1, space.V2, space.Q
    G2 = assemble_gradient_coupling(V2, Q).toarray()
    K_p = Q.stiffness.toarray()
    M_E = np.block([[V2.mass.toarray(), G2], [G2.T, K_p]])
    G_E = np.vstack([G2, K_p])
    J = loop_embedding(space.mesh, V1, V2)
    lam, Y = sla.eigh(0.5 * (M_E + M_E.T))
    keep = lam > 1e-10 * lam[-1]
    Y = Y[:, keep] / np.sqrt(lam[keep])
    J_mix = np.vstack([J, np.zeros((Q.n_dofs, V1.n_dofs))])
    Qfull, _ = sla.qr(Y.T @ (M_E @ J_mix), mode="full")
    return ComplementBasis(B=Y @ Qfull[:, V1.n_dofs:], M_E=M_E, G_E=G_E, J=J)


# ---------------------------------------------------------------------------
# composite inf-sup constant from its definition
# ---------------------------------------------------------------------------

def explicit_infsup_constant(space, s):
    """beta(s) = inf_q sup_v (v, ∇q) / (‖v‖_{1-s} ‖q‖_s) from its definition.

    The velocity side is the dual norm of q ↦ (v_fe, ∇q) + (v_perp, ∇q)
    over the explicit composite Gram of index 1 - s (the single pencil of
    ``explicit_star_norm``), applied by a dense solve.  The pressure metric
    of index s is M^{1/2} (M^{-1/2} K M^{-1/2})^s M^{1/2}, from the
    loop-assembled pressure mass and stiffness, built with a matrix
    fractional power on a Euclidean basis of the mean-free pressures.
    The constant is the root of the smallest generalized eigenvalue of
    the two quadratic forms on that subspace.
    """
    lam, Z, M = _explicit_star_pencil(space)
    MZ = M @ Z
    gram_v = (MZ * lam ** (1.0 - s)) @ MZ.T
    C = np.vstack([space.G1, space.T_pp])                 # (n1 + m, np)

    P = sla.null_space(np.asarray(space.m_p, dtype=float)[None, :])
    Cp = C @ P
    dual = Cp.T @ sla.solve(0.5 * (gram_v + gram_v.T), Cp, assume_a="pos")

    Mr = P.T @ dense_scalar_mass(space.Q) @ P
    Kr = P.T @ dense_scalar_stiffness(space.Q) @ P
    Mh = np.real(sla.sqrtm(Mr))
    Mh_inv = np.linalg.inv(Mh)
    power = sla.fractional_matrix_power(Mh_inv @ Kr @ Mh_inv, s)
    assert np.max(np.abs(np.imag(power))) <= 1e-12 * np.max(np.abs(power))
    metric_p = Mh @ np.real(power) @ Mh

    vals = sla.eigh(0.5 * (dual + dual.T), 0.5 * (metric_p + metric_p.T),
                    eigvals_only=True)
    return float(np.sqrt(max(vals[0], 0.0)))


# ---------------------------------------------------------------------------
# constrained projections and the W/V equivalence by dense saddle and
# generalized-pencil routes
# ---------------------------------------------------------------------------

def apply_mass(space, X):
    """The composite mass M★ = blockdiag(M1, I) applied to star vectors."""
    out = np.array(X, dtype=float, copy=True)
    out[:space.n1] = space.M1 @ X[:space.n1]
    return out


def apply_form(space, X):
    """The composite form blockdiag(K1, h⁻² I) applied to star vectors."""
    out = np.empty_like(np.asarray(X, dtype=float))
    out[:space.n1] = space.K1 @ X[:space.n1]
    out[space.n1:] = np.asarray(X[space.n1:]) / space.h ** 2
    return out


def dense_saddle_project(space, top_apply, v):
    """Constrained projection of ``v`` orthogonal in the top block
    ``top_apply`` (:func:`apply_mass`: Leray; :func:`apply_form`: Ritz),
    from one dense symmetric saddle solve

        [A    C     0  ] [u]   [A v]
        [Cᵀ   0     m_p] [r] = [ 0 ],   C = [G1; T_pp],
        [0    m_pᵀ  0  ] [μ]   [ 0 ]

    with A assembled as ``top_apply(space, I)``.  Returns (u, r)."""
    n_t = space.n_star
    npres = space.Q.n_dofs
    C = np.vstack([space.G1, space.T_pp])
    n = n_t + npres + 1
    A = np.zeros((n, n))
    A[:n_t, :n_t] = top_apply(space, np.eye(n_t))
    A[:n_t, n_t:n_t + npres] = C
    A[n_t:n_t + npres, :n_t] = C.T
    A[n_t:n_t + npres, -1] = space.m_p
    A[-1, n_t:n_t + npres] = space.m_p
    rhs = np.zeros(n)
    rhs[:n_t] = top_apply(space, np.asarray(v, dtype=float))
    sol = sla.solve(A, rhs, assume_a="sym")
    return sol[:n_t], sol[n_t:n_t + npres]


def dense_wv_equivalence(space, s):
    """Extremal squared-norm quotients of the W/V equivalence as the
    generalized eigenvalues of the pencil (ambient Gram, intrinsic Gram)
    over an explicit M_star-orthonormal null-space basis N of the
    divergence constraint.  The ambient Gram is NᵀW_sN with the resolved
    block M1 Z Λ₁ˢ Zᵀ M1 from the pencil (K1, M1) and the complement block
    h^(-2s) I; the intrinsic Gram is U Λˢ Uᵀ from NᵀAN = U Λ Uᵀ."""
    n1 = space.n1
    N = sla.null_space(np.hstack([space.G1.T, space.T_pp.T]))
    N = N @ np.linalg.inv(np.linalg.cholesky(N.T @ apply_mass(space, N)).T)
    lamV, U = np.linalg.eigh(N.T @ apply_form(space, N))
    lam1, Z = sla.eigh(space.K1, space.M1)
    MZ = space.M1 @ Z
    amb = N[:n1].T @ ((MZ * lam1 ** s) @ MZ.T) @ N[:n1]
    amb += space.h ** (-2.0 * s) * N[n1:].T @ N[n1:]
    intrinsic = (U * lamV ** s) @ U.T
    vals = sla.eigh(0.5 * (amb + amb.T), 0.5 * (intrinsic + intrinsic.T),
                    eigvals_only=True)
    return float(vals[0]), float(vals[-1])


# ---------------------------------------------------------------------------
# dense Schur-complement step (the eliminated form of the augmented system)
# ---------------------------------------------------------------------------

def _component_blockdiag(scalar_dense, components):
    n = scalar_dense.shape[0] * components
    m = scalar_dense.shape[1] * components
    out = np.zeros((n, m))
    for k in range(components):
        out[k::components, k::components] = scalar_dense
    return out


def _dense_scatter(rows, cols, local, shape):
    """Dense sum of the cell blocks ``local[c]`` at the scalar dofs
    ``rows[c]`` and ``cols[c]``, one cell at a time; -1 dofs dropped."""
    out = np.zeros(shape)
    for r, c, block in zip(rows, cols, local):
        keep_r, keep_c = r >= 0, c >= 0
        out[np.ix_(r[keep_r], c[keep_c])] += block[np.ix_(keep_r, keep_c)]
    return out


def dense_advection_operators(disc, a):
    """Dense C(a), NᵀWN and NᵀW𝒢 for a frozen advection velocity, scattered
    cell by cell into scalar blocks and interleaved per component."""
    from vmsns.fe import advection_factor

    V, Q = disc.V, disc.Q
    order = V.quad_order
    tab = V.tabulation(order)
    tabq = Q.tabulation(order)
    w = tab["weights"]
    n_fac = advection_factor(V, a)
    sv, sq = V.node_dof[V.cell_nodes], Q.node_dof[Q.cell_nodes]
    vv = (V.n_scalar, V.n_scalar)
    conv_loc = np.einsum("cq,qi,cqj->cij", w, tab["phi"], n_fac)
    nn_loc = np.einsum("cq,cqi,cqj->cij", w, n_fac, n_fac)
    C = _component_blockdiag(_dense_scatter(sv, sv, conv_loc, vv), V.components)
    NN = _component_blockdiag(_dense_scatter(sv, sv, nn_loc, vv), V.components)
    NG = np.zeros((V.n_dofs, Q.n_scalar))
    for k in range(V.components):
        dk_loc = np.einsum("cq,cqi,cqj->cij", w, n_fac, tabq["grad"][:, :, :, k])
        NG[k::V.components, :] = _dense_scatter(sv, sq, dk_loc,
                                                (V.n_scalar, Q.n_scalar))
    return C, NN, NG


def _dense_refined_solve(A, rhs):
    """Dense LU with one pass of iterative refinement."""
    lu = sla.lu_factor(A)
    x = sla.lu_solve(lu, rhs)
    return x + sla.lu_solve(lu, rhs - A @ x)


def extrapolated_start(state, t):
    """The velocity at ``t`` of the polynomial in time through ``state``
    and the states of its history, by ``np.polyfit`` in t - ``t`` (so the
    value is the constant coefficient); ``state.u`` without a history or
    where ``t`` lies further ahead of ``state.t`` than the history
    reaches back."""
    h = state.history
    if h is None or t - state.t > state.t - h.times.min():
        return state.u.copy()
    times = np.concatenate([[state.t], h.times]) - t
    return np.polyfit(times, np.vstack([state.u, h.velocities]), times.size - 1)[-1]


def dense_schur_step(state, load, cfg):
    """One backward-Euler step with the projection eliminated densely.

    The Picard matrix carries the Schur blocks NᵀWN - CᵀM⁻¹C,
    NᵀW𝒢 - CᵀM⁻¹G and K_Q - GᵀM⁻¹G, formed from dense copies of the
    package's mass, stiffness and coupling operators and a Cholesky
    factor of M, and is solved by dense LU.  ``load`` is the forcing's
    load vector or None; every setting comes from the ScenarioConfig
    ``cfg``.  The subscale pairings, τ and the subscale update
    are the package's own; the residual that drives the update is
    :func:`einsum_residual_field`, and its complement part is taken with
    ``project_orthogonal``, not read off a projection coefficient.
    Picard starts from :func:`extrapolated_start`.  Returns the new
    StarState, with the history of ``state`` and its state, and no
    solutions.
    """
    from vmsns.fe import advection_factor, linf_norm
    from vmsns.solver import History, StarState
    from vmsns.subgrid import (advance_subscale, compute_tau,
                               continuity_pairing, project_orthogonal,
                               transport_pairing)

    disc = state.disc
    V, Q = disc.V, disc.Q
    n_u, n_p = disc.n_u, disc.n_p
    dt = cfg.dt
    M_d = V.mass.toarray()
    K_d = V.stiffness.toarray()
    G_d = disc.G.toarray()
    M_chol = sla.cho_factor(M_d, lower=True)
    MinvG = sla.cho_solve(M_chol, G_d)
    S_GG = Q.stiffness.toarray() - G_d.T @ MinvG
    S_GG = 0.5 * (S_GG + S_GG.T)

    tau = compute_tau(cfg, disc.mesh.h_max, linf_norm(V, state.u))
    beta = 1.0 / (1.0 / dt + 1.0 / tau)
    F = np.zeros(n_u) if load is None else load
    base_rhs_u = F + M_d @ state.u / dt
    cont_cross = continuity_pairing(Q, state.tilde)

    a = extrapolated_start(state, state.t + dt) if cfg.convection else np.zeros(n_u)
    n = n_u + n_p + 1
    for iterations in range(1, cfg.picard_max + 1):
        C, NN, NG = dense_advection_operators(disc, a)
        S_NN = NN - C.T @ sla.cho_solve(M_chol, C)
        S_NG = NG - C.T @ MinvG
        A = np.zeros((n, n))
        A[:n_u, :n_u] = M_d / dt + C + cfg.nu * K_d + beta * S_NN
        A[:n_u, n_u:n_u + n_p] = G_d + beta * S_NG
        A[n_u:n_u + n_p, :n_u] = G_d.T - beta * S_NG.T
        A[n_u:n_u + n_p, n_u:n_u + n_p] = -beta * S_GG
        A[n_u:n_u + n_p, -1] = Q.mean_vector
        A[-1, n_u:n_u + n_p] = Q.mean_vector
        mom_cross = transport_pairing(V, advection_factor(V, a),
                                      state.tilde)
        rhs = np.concatenate([base_rhs_u + (beta / dt) * mom_cross,
                              -(beta / dt) * cont_cross, [0.0]])
        x = _dense_refined_solve(A, rhs)
        u_new, p_new = x[:n_u], x[n_u:n_u + n_p]
        if not cfg.convection:
            break
        increment = np.linalg.norm(u_new - a) / max(np.linalg.norm(u_new), 1e-300)
        if increment <= cfg.picard_tol:
            break
        a = u_new
    else:
        raise AssertionError("dense Schur step: Picard did not converge")

    res = einsum_residual_field(V, Q, u_new, p_new, advection=a)
    times, velocities = [state.t], [state.u]
    if state.history is not None:            # keep the latest earlier state
        times.append(state.history.times[0])
        velocities.append(state.history.velocities[0])
    history = History(np.array(times), np.array(velocities), np.array([]))
    return StarState(u=u_new, p=p_new,
                     tilde=advance_subscale(V, state.tilde,
                                            project_orthogonal(res, V), tau, dt),
                     t=state.t + dt, disc=disc, tau_used=tau,
                     picard_iters=iterations, history=history)


# ---------------------------------------------------------------------------
# the augmented fill and the step start by their earlier routes
# ---------------------------------------------------------------------------

def _augmented_terms(disc):
    """Rows and columns, in unknown numbering, of the terms of the
    augmented matrix in the order :func:`bincount_system_matrix` lists
    their weights, and which of them lie on no eliminated dof."""
    from vmsns.solver import _csr_coords

    V, Q = disc.V, disc.Q
    n_u, n_p = V.n_dofs, Q.n_scalar
    p0, z0, lam = n_u, n_u + n_p, 2 * n_u + n_p
    rM, cM = _csr_coords(V.mass)
    rK, cK = _csr_coords(V.stiffness)
    rG, cG = _csr_coords(disc.G)
    rQ, cQ = _csr_coords(Q.stiffness)
    pdofs, lams = p0 + np.arange(n_p), np.full(n_p, lam)
    const = [(rM, cM), (z0 + rM, z0 + cM), (rK, cK), (rG, p0 + cG),
             (p0 + cG, rG), (z0 + rG, p0 + cG), (p0 + cG, z0 + rG),
             (p0 + rQ, p0 + cQ), (pdofs, lams), (lams, pdofs)]
    vd, qd = V.cell_vdofs, Q.cell_vdofs
    v_ok = vd[:, :, :1] >= 0
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
    return rows, cols, ok


def augmented_term_count(disc):
    """The number of terms of the augmented matrix on no eliminated dof."""
    return int(np.count_nonzero(_augmented_terms(disc)[2]))


def bincount_system_matrix(disc, dt, nu, beta, n_fac):
    """The augmented matrix in the pattern's solve order, filled with one
    weight per term: the constant and cell-local weights, the latter
    broadcast over the velocity components, concatenated and summed into
    their slots by ``np.bincount``.  Each term's slot is found by binary
    search among the pattern's (column, row) keys."""
    import scipy.sparse as sp
    from vmsns.solver import _cell_blocks

    pat = disc.pattern
    rows, cols, ok = _augmented_terms(disc)
    n = pat.n
    cols_of = np.repeat(np.arange(n), np.diff(pat.indptr))
    pattern_keys = cols_of * n + pat.indices
    keys = pat.where[cols[ok]] * n + pat.where[rows[ok]]
    slot = np.searchsorted(pattern_keys, keys)
    assert np.array_equal(pattern_keys[slot], keys)
    positions = np.full(ok.size, pat.nnz)
    positions[ok] = slot

    m, k, g, kq, mp = pat.values
    conv, nn, ng = _cell_blocks(disc.V, disc.Q, n_fac)
    vv = np.stack([conv + beta * nn, conv, -beta * conv])
    vv = np.broadcast_to(vv[..., None], vv.shape + (disc.V.components,))
    weights = np.concatenate([
        m / dt, -m, nu * k, g, g, g, beta * g, -beta * kq, mp, mp,
        vv.ravel(), (beta * ng).ravel(), (-beta * ng).ravel(),
    ])
    data = np.bincount(positions, weights, minlength=pat.nnz + 1)[:pat.nnz]
    return sp.csc_matrix((data, pat.indices, pat.indptr), shape=(n, n))


def concatenated_pattern(V, Q, G):
    """The augmented pattern built by concatenating one array per term:
    keys, value indices and signs are listed term by term, concatenated,
    and ordered by numpy's stable argsort of the int64 keys, where the
    solver fills one preallocated array of each and sorts by 16-bit
    radix passes.  Returns (n, nnz, indptr, indices, perm, where, data,
    F indices, F indptr, blocks)."""
    from vmsns.solver import _csr_coords, _dissect

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
    vd, qd = V.cell_vdofs, Q.cell_vdofs
    nc, nl, nl_q = vd.shape[0], vd.shape[1], qd.shape[1]
    n_vv, n_vq = nc * nl * nl, nc * nl * nl_q * d
    sizes = [M.nnz, M.nnz, K.nnz, G.nnz, G.nnz, KQ.nnz, n_p, n_vv, n_vv, n_vv, n_vq]
    start = np.cumsum([0] + sizes)
    v_ok = vd[:, :, :1] >= 0
    *vv, ok = np.broadcast_arrays(vd[:, :, None, :], vd[:, None, :, :],
                                  np.arange(n_vv).reshape(nc, nl, nl, 1),
                                  v_ok[:, :, None, :] & v_ok[:, None, :, :])
    vi, vj, vv_at = (x[ok] for x in vv)
    *vq, ok = np.broadcast_arrays(vd[:, :, None, :], qd[:, None, :, :],
                                  np.arange(n_vq).reshape(nc, nl, nl_q, d),
                                  v_ok[:, :, None, :] & (qd >= 0)[:, None, :, :])
    vq, qj, vq_at = (x[ok] for x in vq)
    qj = p0 + qj
    terms = [(rM, cM, 0, 1, None), (z0 + rM, z0 + cM, 1, -1, None),
             (rK, cK, 2, 1, None), (rG, p0 + cG, 3, 1, None),
             (p0 + cG, rG, 3, 1, None), (z0 + rG, p0 + cG, 3, 1, None),
             (p0 + cG, z0 + rG, 4, 1, None), (p0 + rQ, p0 + cQ, 5, -1, None),
             (pdofs, lams, 6, 1, None), (lams, pdofs, 6, 1, None),
             (vi, vj, 7, 1, vv_at), (z0 + vi, vj, 8, 1, vv_at),
             (vj, z0 + vi, 9, -1, vv_at), (vq, qj, 10, 1, vq_at),
             (qj, vq, 10, -1, vq_at)]

    nv = V.mesh.n_vertices
    rank = np.empty(nv, dtype=np.int64)
    rank[_dissect(V.mesh.grid, np.arange(nv))] = np.arange(nv)
    inner = np.repeat(rank[V.node_dof >= 0], d)
    perm = np.argsort(np.concatenate([inner, rank, inner]), kind="stable")
    perm = np.insert(perm, np.flatnonzero((perm >= p0) & (perm < z0))[-1], lam)
    where = np.empty(n, dtype=np.int64)
    where[perm] = np.arange(n)

    keys, index, sign = [], [], []
    for rows, cols, block, s, at in terms:
        if at is None:
            at = np.arange(sizes[block])
        keys.append(where[cols] * n + where[rows])
        index.append((start[block] + at).astype(np.int32))
        sign.append(np.full(at.size, float(s)))
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    uniq = keys[first]
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(uniq // n, minlength=n))]).astype(np.int32)
    blocks = tuple(slice(a, b) for a, b in zip(start[:-1].tolist(), start[1:].tolist()))
    return (n, uniq.size, indptr, (uniq % n).astype(np.int32), perm, where,
            np.concatenate(sign)[order], np.concatenate(index)[order],
            np.append(first, keys.size).astype(np.int32), blocks)


def _lagrange_extrapolate(times, values, t):
    if t - times[0] > times[0] - times[-1]:
        return values[0]
    weights = [math.prod((t - s) / (ti - s) for j, s in enumerate(times) if j != i)
               for i, ti in enumerate(times)]
    return np.asarray(weights) @ values


def lagrange_step_start(state, t, depth):
    """The Picard start at ``t``, the carried factor with its start and
    the history after ``state``, by one Lagrange extrapolation each of
    the velocities and the solutions, and the history rebuilt from lists
    of the ``depth`` latest states."""
    from vmsns.solver import History

    u, carried, h = state.u, state.factor, state.history
    times, velocities = [state.t], [state.u]
    solutions = [] if carried is None else [carried[1]]
    if h is not None:
        times += list(h.times[:depth - 1])
        velocities += list(h.velocities[:depth - 1])
        if solutions:
            solutions += list(h.solutions[:depth - 1])
    history = History(np.array(times), np.array(velocities), np.array(solutions))
    if h is None:
        return u.copy(), carried, history
    all_times = np.concatenate([[state.t], h.times])
    u = _lagrange_extrapolate(all_times, np.vstack([u, h.velocities]), t)
    if carried is not None:
        solve, y = carried
        j = len(h.solutions)
        carried = solve, _lagrange_extrapolate(
            all_times[:j + 1], np.vstack([y, *h.solutions]), t)
    return u, carried, history


# ---------------------------------------------------------------------------
# structured mesh, edge and dof numbering, and ordering
# ---------------------------------------------------------------------------

def loop_structured_mesh(dim, n, box):
    """Vertices and cells of ``mesh.build_structured(dim, n, box)`` by a
    loop over grid cells: triangles split along the low--high diagonal in
    2D (x fastest), Kuhn tetrahedra in 3D (z fastest), one per axis
    permutation, with the odd ones' last two vertices swapped."""
    from itertools import permutations

    from vmsns.mesh import signed_volumes

    axes = [np.linspace(lo, hi, n + 1) for lo, hi in box]
    cells = []
    if dim == 2:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="xy")
        vertices = np.column_stack([X.ravel(), Y.ravel()])
        v = lambda i, j: j * (n + 1) + i
        for j in range(n):
            for i in range(n):
                a, b = v(i, j), v(i + 1, j)
                c, d = v(i + 1, j + 1), v(i, j + 1)
                cells.append((a, b, c))
                cells.append((a, c, d))
        return vertices, np.asarray(cells, dtype=np.int64)
    X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    v = lambda i, j, k: (i * (n + 1) + j) * (n + 1) + k
    steps = {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in permutations((0, 1, 2)):
                    p = [(i, j, k)]
                    for axis in perm:
                        s = steps[axis]
                        p.append(tuple(p[-1][q] + s[q] for q in range(3)))
                    cells.append(tuple(v(*q) for q in p))
    cells = np.asarray(cells, dtype=np.int64)
    flip = signed_volumes(vertices, cells) < 0
    cells[np.ix_(flip, [2, 3])] = cells[np.ix_(flip, [3, 2])]
    return vertices, cells


def loop_extract_edges(cells):
    """Edges in first-seen order and each cell's edges, local pairs (i, j),
    i < j, lexicographic: ``mesh.extract_edges`` by a dictionary loop."""
    nloc = cells.shape[1]
    pairs = [(i, j) for i in range(nloc) for j in range(i + 1, nloc)]
    index = {}
    edges = []
    cell_edges = np.empty((cells.shape[0], len(pairs)), dtype=np.int64)
    for c, cell in enumerate(cells):
        for e, (i, j) in enumerate(pairs):
            key = tuple(sorted((int(cell[i]), int(cell[j]))))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
            cell_edges[c, e] = index[key]
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2), cell_edges


def loop_p2_node_dof(mesh):
    """Scalar dof of every node of the zero-trace degree-2 space (vertices,
    then one node per edge of :func:`loop_extract_edges`), -1 on the
    boundary: the boundary vertices and the edges of boundary facets,
    collected as sets."""
    edges, _ = loop_extract_edges(mesh.cells)
    nv = mesh.n_vertices
    edge_index = {tuple(e): i for i, e in enumerate(edges.tolist())}
    boundary = set(np.unique(mesh.boundary_facets).tolist())
    for facet in mesh.boundary_facets:
        f = sorted(int(q) for q in facet)
        for a in range(len(f)):
            for b in range(a + 1, len(f)):
                boundary.add(nv + edge_index[(f[a], f[b])])
    node_dof = -np.ones(nv + len(edges), dtype=np.int64)
    kept = [q for q in range(node_dof.size) if q not in boundary]
    node_dof[kept] = np.arange(len(kept))
    return node_dof


def loop_embedding(mesh, V1, V2):
    """Nodal interpolation of the degree-1 space into the degree-2 space,
    entry by entry: 1 from a vertex to itself, ½ from an edge node to each
    endpoint, per component, with the dofs written out as
    scalar dof * components + k."""
    edges, _ = loop_extract_edges(mesh.cells)
    comp = V1.components
    J = np.zeros((V2.n_dofs, V1.n_dofs))
    for v in range(mesh.n_vertices):
        s2, s1 = V2.node_dof[v], V1.node_dof[v]
        if s2 >= 0 and s1 >= 0:
            for k in range(comp):
                J[s2 * comp + k, s1 * comp + k] = 1.0
    for e, ends in enumerate(edges):
        s2 = V2.node_dof[mesh.n_vertices + e]
        if s2 < 0:
            continue
        for vtx in ends:
            s1 = V1.node_dof[vtx]
            if s1 >= 0:
                for k in range(comp):
                    J[s2 * comp + k, s1 * comp + k] = 0.5
    return J


def rcm_order(A):
    """Reverse Cuthill-McKee order of the augmented matrix ``A``, given in
    unknown order, on its pattern without the dense mean row and column,
    which go last: the band order that nested dissection replaced."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    lam = A.shape[0] - 1
    graph = sp.csr_matrix(A)[:lam, :lam]
    graph.data = np.ones_like(graph.data)
    return np.append(reverse_cuthill_mckee(graph, symmetric_mode=True), lam)


# ---------------------------------------------------------------------------
# data bound
# ---------------------------------------------------------------------------

def dense_hminus1_surrogate(V, load):
    """sqrt(loadᵀ K⁻¹ load) by a dense Cholesky solve with the stiffness."""
    z = sla.solve(V.stiffness.toarray(), load, assume_a="pos")
    return float(np.sqrt(max(load @ z, 0.0)))


# ---------------------------------------------------------------------------
# mesh quality report (only the tests check it; the lab's inverse-inequality
# rows assume what it measures)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QualityReport:
    """Shape and uniformity summary of a mesh.

    ``min_inradius_ratio`` is min over cells of (inradius / diameter) --
    the shape-regularity measure; ``uniformity_ratio`` is h_max / h_min.
    """

    h_max: float
    h_min: float
    min_inradius_ratio: float
    uniformity_ratio: float


def _facet_measures(x):
    """Measures of the d+1 facets of each simplex in the batch ``x``.

    x has shape (nc, d+1, d).  Returns (nc, d+1) facet lengths (2D) or
    areas (3D).
    """
    nc, nloc, d = x.shape
    out = np.zeros((nc, nloc))
    for drop in range(nloc):
        keep = [q for q in range(nloc) if q != drop]
        f = x[:, keep, :]
        if d == 2:                       # opposite edge length
            out[:, drop] = np.linalg.norm(f[:, 1, :] - f[:, 0, :], axis=1)
        else:                            # opposite triangle area
            u = f[:, 1, :] - f[:, 0, :]
            v = f[:, 2, :] - f[:, 0, :]
            out[:, drop] = 0.5 * np.linalg.norm(np.cross(u, v), axis=1)
    return out


def mesh_quality(m, uniformity_bound=4.0):
    """Recompute shape and size ratios from scratch.

    Raises
    ------
    InvariantViolation
        If any cell has non-positive volume (degenerate mesh) or the
        quasi-uniformity ratio exceeds ``uniformity_bound``.
    """
    from vmsns.errors import InvariantViolation
    from vmsns.mesh import cell_diameters, signed_volumes

    vols = signed_volumes(m.vertices, m.cells)
    diam = cell_diameters(m.vertices, m.cells)
    scale = float(np.max(diam)) ** m.dim
    if np.any(vols <= 1e-14 * scale):
        bad = int(np.argmin(vols))
        raise InvariantViolation(
            f"cell {bad} is degenerate (signed volume {vols[bad]:.3e})"
        )
    x = m.vertices[m.cells]
    surf = _facet_measures(x).sum(axis=1)
    inradius = m.dim * vols / surf           # rho = d |K| / |boundary of K|
    ratio = float(diam.max() / diam.min())
    report = QualityReport(
        h_max=float(diam.max()),
        h_min=float(diam.min()),
        min_inradius_ratio=float(np.min(inradius / diam)),
        uniformity_ratio=ratio,
    )
    if ratio > uniformity_bound:
        raise InvariantViolation(
            f"quasi-uniformity ratio {ratio:.3f} exceeds bound {uniformity_bound}"
        )
    return report


# ---------------------------------------------------------------------------
# local energy estimator (gate 11 and its tests)
# ---------------------------------------------------------------------------
# The fields are paired against a space-time test function that is a
# tensor product of one-dimensional polynomial bumps (1-θ²)³ (clipped
# outside |θ|<1) in each space direction and in time.  Cells fully inside
# or fully outside the support see a polynomial integrand, so a high
# enough rule integrates them exactly; a support box aligned with mesh
# lines has no crossing cells, which makes the whole spatial pairing
# exact.  Time integration is trapezoidal over the stored snapshots, at
# least MIN_SNAPSHOTS_IN_WINDOW of them inside the window.

#: documented snapshot-cadence requirement for the local energy pairing
MIN_SNAPSHOTS_IN_WINDOW = 16


@dataclass(frozen=True)
class BumpTest:
    """Tensor-product space-time test function, nonnegative with support
    strictly inside (0, T) x domain.

    Space profile: prod_i (1 - ((x_i - center_i)/radius_i)²)³ clipped to
    its support box; time profile: (1 - ((t - t_center)/t_width)²)³
    clipped.  ``quad_order`` controls the spatial pairing rule; the
    default integrates bump x quadratic-field products exactly on
    non-crossing cells for degree-1 spaces.
    """

    center: tuple
    radius: tuple          # scalar or per-axis half-widths
    t_center: float
    t_width: float
    amplitude: float = 1.0
    quad_order: int = 15

    def _radii(self, dim):
        r = np.atleast_1d(np.asarray(self.radius, dtype=float))
        if r.size == 1:
            r = np.repeat(r, dim)
        if r.size != dim or np.any(r <= 0):
            raise ConfigurationError(
                f"bump radius must be positive (scalar or per-axis), got {self.radius!r}")
        return r

    def space_tables(self, x):
        """Value, gradient, and Laplacian of the space profile at points x.

        x has shape (..., dim).  Returns (value, grad, lap) with shapes
        (...,), (..., dim), (...,).
        """
        x = np.asarray(x, dtype=float)
        dim = x.shape[-1]
        c = np.asarray(self.center, dtype=float)
        if c.shape != (dim,):
            raise ConfigurationError(
                f"bump center has {c.shape} entries for a {dim}-D mesh")
        r = self._radii(dim)
        theta = (x - c) / r
        inside = np.abs(theta) < 1.0
        q = np.where(inside, 1.0 - theta ** 2, 0.0)
        a = q ** 3                                      # (..., dim) factors
        da = np.where(inside, -6.0 * theta * q ** 2 / r, 0.0)
        dda = np.where(inside, (-6.0 * q ** 2 + 24.0 * theta ** 2 * q) / r ** 2, 0.0)
        val = self.amplitude * np.prod(a, axis=-1)
        grad = np.empty_like(theta)
        lap = np.zeros(theta.shape[:-1])
        for i in range(dim):
            others = self.amplitude * np.prod(
                np.delete(a, i, axis=-1), axis=-1)
            grad[..., i] = da[..., i] * others
            lap = lap + dda[..., i] * others
        return val, grad, lap

    def time_profile(self, t):
        theta = (t - self.t_center) / self.t_width
        if abs(theta) >= 1.0:
            return 0.0, 0.0
        q = 1.0 - theta * theta
        return q ** 3, -6.0 * theta * q * q / self.t_width

    def validate_support(self, mesh, t_lo, t_hi):
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        c = np.asarray(self.center, dtype=float)
        r = self._radii(mesh.dim)
        problems = []
        if np.any(c - r < lo - 1e-12) or np.any(c + r > hi + 1e-12):
            problems.append("bump spatial support extends outside the domain")
        if self.t_center - self.t_width < t_lo - 1e-12 or \
           self.t_center + self.t_width > t_hi + 1e-12:
            problems.append("bump time window extends outside the snapshot range")
        if problems:
            raise ConfigurationError(problems)


def local_energy_residual(history, bump):
    """Distributional local-energy pairing R(φ) over the snapshots of a
    run (a RunResult).

    R(φ) = ∫∫ [ -½|u|² ∂_t φ - (½|u|² + p) u·∇φ - nu ½|u|² Δφ
                + nu |∇u|² φ - f·u φ ],

    space integrals by per-cell quadrature at the bump's rule, time by
    trapezoid over snapshots.  Negative values are what vanishing-residual
    (suitability-style) behaviour predicts in the limit; at finite h the
    number is a diagnostic.  ``bump`` may be a BumpTest or a list of
    (weight, BumpTest) pairs, which makes linearity in φ directly
    testable.
    """
    states = history.states
    if len(states) < 2:
        raise ConfigurationError("local energy pairing needs at least two snapshots")
    bumps = bump if isinstance(bump, (list, tuple)) else [(1.0, bump)]
    # space tables can be combined across bumps only when the time windows
    # coincide; otherwise split the pairing by linearity
    same_window = all(
        (b.t_center, b.t_width) == (bumps[0][1].t_center, bumps[0][1].t_width)
        for _, b in bumps)
    if not same_window:
        return sum(c_w * local_energy_residual(history, b) for c_w, b in bumps)
    disc = states[0].disc
    V, Q = disc.V, disc.Q
    mesh = disc.mesh
    t = np.array([s.t for s in states])
    for _, b in bumps:
        b.validate_support(mesh, t[0], t[-1])
        n_inside = int(np.sum((t > b.t_center - b.t_width)
                              & (t < b.t_center + b.t_width)))
        if n_inside < MIN_SNAPSHOTS_IN_WINDOW:
            raise ConfigurationError(
                f"only {n_inside} snapshots inside the bump time window; "
                f"need at least {MIN_SNAPSHOTS_IN_WINDOW} (tighten snapshot_every "
                "or widen the window)")

    order = max(b.quad_order for _, b in bumps)
    tab = V.tabulation(order)
    w = tab["weights"]
    x = tab["points"]

    # space tables are time-independent: precompute per bump and combine
    val = np.zeros(w.shape)
    grad = np.zeros(x.shape)
    lap = np.zeros(w.shape)
    for c_w, b in bumps:
        v_b, g_b, l_b = b.space_tables(x)
        val += c_w * v_b
        grad += c_w * g_b
        lap += c_w * l_b

    f = scenarios.fields_for(history.config).forcing
    f_qp = None if f is None else np.asarray(
        f(x.reshape(-1, mesh.dim)), dtype=float).reshape(x.shape)
    nu = history.config.nu

    # integrand pieces per snapshot: split by their time factor
    coef_dwdt = np.empty(len(states))   # multiplies dφ/dt
    coef_w = np.empty(len(states))      # multiplies φ's window value
    for i, s in enumerate(states):
        u_qp = einsum_eval_at_qp(V, s.u, order)
        grad_u = einsum_eval_grad_at_qp(V, s.u, order)
        p_qp = einsum_eval_at_qp(Q, s.p, order)[:, :, 0]
        half_u2 = 0.5 * np.einsum("cqk,cqk->cq", u_qp, u_qp)
        gradsq = np.einsum("cqkd,cqkd->cq", grad_u, grad_u)
        fu = 0.0 if f_qp is None else np.einsum("cqk,cqk->cq", f_qp, u_qp)
        coef_dwdt[i] = -np.einsum("cq,cq,cq->", w, half_u2, val)
        coef_w[i] = np.einsum("cq,cq->", w, (
            -np.einsum("cqk,cqk->cq", (half_u2 + p_qp)[:, :, None] * u_qp, grad)
            - nu * half_u2 * lap + nu * gradsq * val - fu))

    b0 = bumps[0][1]
    wt = np.empty(len(states))
    dwt = np.empty(len(states))
    for i, ti in enumerate(t):
        wt[i], dwt[i] = b0.time_profile(ti)
    integrand = coef_dwdt * dwt + coef_w * wt
    dt_seg = np.diff(t)
    return float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * dt_seg))
