"""Continuous Lagrange spaces and operator assembly.

Each space has one quadrature rule, of order ``quad_order``.  Basis values
and physical gradients at its points in every cell are tabulated once per
mesh, degree and order (``FeSpace.tabulation``, which also serves the
finer tables of the gradient coupling and the error norms).  Assemblers
contract these tables with quadrature weights (vectorized over cells) and
scatter cell blocks into scipy CSR matrices (``_assemble``).
Fields move between coefficients and the space's quadrature points
through sparse transfer operators (``FeSpace.transfer``), built once per
space and kind: E evaluates values, D gradients, and the loads are their
weighted twins EᵀW and DᵀW, which share their index arrays.  Each
evaluation, load and pairing is one sparse product.
Vector spaces use interleaved component ordering -- global dof =
scalar_dof * components + component.  This numbering is formed in one
place, ``FeSpace.vdofs``; every scatter and gather, here and in the
solver's step pattern, goes through it or its per-cell table
``FeSpace.cell_vdofs``.

A space with ``zero_trace`` set imposes the Dirichlet condition by
eliminating its boundary nodes from the dof numbering; any other space
keeps all nodes.  The scheme's one pair of spaces, equal-order P1
velocity and pressure (``equal_order_pair``), has no discrete inf-sup
condition, and its pressure space keeps the constants: the pressure mean
is pinned downstream, by the solver's multiplier row and by the lab's
m_p m_pᵀ, not by the space.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigurationError, InternalError
from .mesh import _edge_pairs, extract_edges, signed_volumes
from .quadrature import simplex_quadrature

__all__ = [
    "FeSpace",
    "equal_order_pair",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_gradient_coupling",
    "assemble_load",
    "l2_project",
    "linf_norm",
]


# ---------------------------------------------------------------------------
# reference elements
# ---------------------------------------------------------------------------

def _p1_basis(bary):
    """P1 values and barycentric derivatives at barycentric points."""
    lam = np.asarray(bary)            # (nq, d+1)
    nq, nb = lam.shape
    phi = lam.copy()                  # (nq, d+1)
    dphi = np.broadcast_to(np.eye(nb), (nq, nb, nb)).copy()
    return phi, dphi


def _p2_basis(bary):
    """P2 values and barycentric derivatives.

    Local node order: the d+1 vertices, then one midpoint per vertex pair
    (i, j), i < j, lexicographically -- matching mesh.extract_edges.
    """
    lam = np.asarray(bary)
    nq, nb = lam.shape
    pairs = [(i, j) for i in range(nb) for j in range(i + 1, nb)]
    nloc = nb + len(pairs)
    phi = np.zeros((nq, nloc))
    dphi = np.zeros((nq, nloc, nb))
    for i in range(nb):
        phi[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        dphi[:, i, i] = 4.0 * lam[:, i] - 1.0
    for e, (a, b) in enumerate(pairs):
        k = nb + e
        phi[:, k] = 4.0 * lam[:, a] * lam[:, b]
        dphi[:, k, a] = 4.0 * lam[:, b]
        dphi[:, k, b] = 4.0 * lam[:, a]
    return phi, dphi


_BASIS = {1: _p1_basis, 2: _p2_basis}


def _symmetrized(mat):
    """CSR of an operator the assembly promises symmetric (mass,
    stiffness): checked, then symmetrized in its last few ulps so
    eigensolvers see an exact pair."""
    mat = mat.tocsr()
    gap = abs(mat - mat.T)
    scale = max(abs(mat).max(), 1e-300)
    if gap.nnz and gap.max() > 1e-13 * scale:
        raise InternalError("operator expected symmetric is not")
    return (mat + mat.T) * 0.5


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

class FeSpace:
    """A (possibly vector-valued) continuous Lagrange space on a mesh.

    With ``zero_trace`` set the boundary nodes are eliminated (a zero
    Dirichlet trace); no space constrains its mean (see the module
    docstring).  The heavy per-cell tables are computed lazily and cached
    on the mesh per degree and quadrature order; the space's own rule has
    order ``quad_order``, and its transfer operators all act at that rule.

    Attributes
    ----------
    mesh : Mesh
    degree : int
        Polynomial order (1 or 2).
    components : int
        1 for scalar spaces, mesh.dim for velocities.
    n_scalar : int
        Number of unconstrained scalar nodes.
    n_dofs : int
        n_scalar * components.
    nodes : ndarray (n_nodes, dim)
        Coordinates of ALL scalar nodes (including eliminated ones).
    node_dof : ndarray (n_nodes,)
        Global scalar dof of each node, -1 if eliminated.
    cell_nodes : ndarray (n_cells, n_loc)
        Scalar node indices per cell.
    cell_vdofs : ndarray (n_cells, n_loc, components)
        Global dof of every component of every cell-local node,
        ``vdofs(cell_nodes)``.
    """

    def __init__(self, mesh, degree=1, components=1, zero_trace=False):
        if degree not in _BASIS:
            raise ConfigurationError(
                f"unsupported polynomial degree {degree} (supported: 1, 2)")
        if components not in (1, mesh.dim):
            raise ConfigurationError(
                f"components must be 1 or mesh.dim={mesh.dim}, got {components}")
        self.mesh = mesh
        self.degree = degree
        self.components = components

        nv = mesh.n_vertices
        if degree == 1:
            self.nodes = mesh.vertices
            self.cell_nodes = mesh.cells
            boundary_nodes = np.unique(mesh.boundary_facets)
        else:
            edges, cell_edges = extract_edges(mesh.cells)
            self.nodes = np.concatenate(
                [mesh.vertices,
                 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])],
                axis=0)
            self.cell_nodes = np.concatenate(
                [mesh.cells, nv + cell_edges], axis=1)
            # an edge node is on the boundary when its edge is an edge of a
            # boundary facet
            facet_edges = _edge_pairs(mesh.boundary_facets).reshape(-1, 2)
            on_boundary = np.isin(edges @ [nv, 1], facet_edges @ [nv, 1])
            boundary_nodes = np.concatenate(
                [np.unique(mesh.boundary_facets), nv + np.flatnonzero(on_boundary)])

        n_nodes = self.nodes.shape[0]
        keep = np.ones(n_nodes, dtype=bool)
        if zero_trace:
            keep[boundary_nodes] = False
        self.node_dof = -np.ones(n_nodes, dtype=np.int64)
        self.node_dof[keep] = np.arange(int(keep.sum()))
        self.n_scalar = int(keep.sum())
        self.n_dofs = self.n_scalar * components

        self.cell_vdofs = self.vdofs(self.cell_nodes)

        self._ops = {}

    def vdofs(self, nodes):
        """Global dofs of the components of scalar nodes: shape
        ``nodes.shape + (components,)``, dof ``node_dof * components + k``
        for component k, and -1 where the node is eliminated."""
        sdofs = self.node_dof[nodes][..., None]
        return np.where(sdofs >= 0,
                        sdofs * self.components + np.arange(self.components), -1)

    # -- tabulation --------------------------------------------------------

    @property
    def quad_order(self):
        return 2 * self.degree + 1

    def tabulation(self, order=None):
        """Per-cell tables (phi, grad, qp coords, physical weights) at the
        rule of order ``order``, the space's own rule by default.

        Cached on the mesh per degree and quadrature order, so spaces of
        one degree on one mesh share them.  ``grad`` has shape
        (n_cells, n_qp, n_loc, dim); ``weights`` (n_cells, n_qp) already
        include the cell measure, so plain contractions integrate.
        """
        if order is None:
            order = self.quad_order
        key = (self.degree, order)
        tab = self.mesh.tabulations.get(key)
        if tab is not None:
            return tab
        mesh = self.mesh
        rule = simplex_quadrature(mesh.dim, order)
        phi, dphi = _BASIS[self.degree](rule.points)

        x = mesh.vertices[mesh.cells]                    # (nc, d+1, d)
        t = x[:, 1:, :] - x[:, :1, :]                    # rows: edge vectors
        tinv = np.linalg.inv(np.transpose(t, (0, 2, 1)))  # (nc, d, d)
        # gradients of barycentric coordinates: lambda_0 = 1 - sum others
        grad_lam = np.zeros((mesh.n_cells, mesh.dim + 1, mesh.dim))
        grad_lam[:, 1:, :] = tinv
        grad_lam[:, 0, :] = -tinv.sum(axis=1)

        grad = np.einsum("qlm,cmd->cqld", dphi, grad_lam)
        qp_x = np.einsum("qm,cmd->cqd", rule.points, x)
        vols = signed_volumes(mesh.vertices, mesh.cells)
        weights = np.multiply.outer(vols, rule.weights)  # (nc, nq)
        tab = {"phi": phi, "grad": grad, "points": qp_x, "weights": weights}
        self.mesh.tabulations[key] = tab
        return tab

    # -- evaluation / pairing ----------------------------------------------

    def nodal_values(self, coeffs):
        """Field values at every scalar node: (n_nodes, components), with
        eliminated nodes read as zero."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_dofs,):
            raise ConfigurationError(
                f"coefficient vector has shape {coeffs.shape}, expected ({self.n_dofs},)")
        return _gather(coeffs, self.vdofs(np.arange(self.nodes.shape[0])))

    def _cellwise(self, coeffs):
        """Coefficients gathered per cell: (nc, n_loc, components)."""
        return _gather(coeffs, self.cell_vdofs)

    def eval_at_qp(self, coeffs):
        """Field values at quadrature points: (nc, nq, components)."""
        nc, nq = self.tabulation()["weights"].shape
        return (self.transfer("eval") @ _flat(coeffs)).reshape(
            nc, nq, self.components)

    def eval_grad_at_qp(self, coeffs):
        """Gradients at quadrature points: (nc, nq, components, dim)."""
        nc, nq = self.tabulation()["weights"].shape
        return (self.transfer("grad") @ _flat(coeffs)).reshape(
            nc, nq, self.components, self.mesh.dim)

    def load_from_qp(self, qp_field):
        """Adjoint of eval_at_qp with quadrature weights: the load vector.

        Entry (i, k) is the quadrature approximation of
        ∫ field_k phi_i, assembled over cells.
        """
        return self.transfer("load") @ _flat(qp_field)

    def grad_load_from_qp(self, qp_field):
        """Adjoint of eval_grad_at_qp with quadrature weights: entry
        (i, k) is the quadrature approximation of ∫ field_k · ∇phi_i for a
        field of shape (nc, nq, components, dim) -- (nc, nq, dim) for a
        scalar space -- assembled over cells."""
        return self.transfer("grad_load") @ _flat(qp_field)

    def scatter_cells(self, loc):
        """Sum cell-local vectors (nc, n_loc, components) into a
        coefficient vector; entries on eliminated dofs are dropped."""
        return self.transfer("scatter") @ _flat(loc)

    # -- transfer operators --------------------------------------------------

    def transfer(self, kind):
        """The sparse operator ``kind`` between coefficients and the
        quadrature points of the space's rule, built on first use and
        cached per kind:

        - ``"eval"``: E, values, rows (cell, qp, component);
        - ``"grad"``: D, gradients, rows (cell, qp, component, direction);
        - ``"load"``: EᵀW, E's adjoint weighted by the quadrature weights:
          the CSC twin of E's index arrays, each entry E's times the
          weight of its row;
        - ``"grad_load"``: DᵀW, likewise D's weighted twin;
        - ``"scatter"``: the sum of cell-local vectors, columns (cell,
          local node, component), into coefficients.

        E, D and the scatter are built in their storage order from the
        per-cell tables, with int32 indices and no sort; entries on
        eliminated dofs are left out.
        """
        op = self._ops.get(kind)
        if op is None:
            op = self._ops[kind] = self._build_transfer(kind)
        return op

    def _build_transfer(self, kind):
        if kind in ("load", "grad_load"):
            op = self.transfer("eval" if kind == "load" else "grad")
            weights = self.tabulation()["weights"].reshape(-1)
            row_weights = np.repeat(weights, op.shape[0] // weights.size)
            data = op.data * np.repeat(row_weights, np.diff(op.indptr))
            return sp.csc_matrix((data, op.indices, op.indptr), shape=op.shape[::-1])
        kept = self.cell_vdofs >= 0                      # (nc, n_loc, comp)
        if kind == "scatter":
            indptr = np.zeros(kept.size + 1, dtype=np.int32)
            np.cumsum(kept.reshape(-1), out=indptr[1:])
            return sp.csc_matrix(
                (np.ones(int(indptr[-1])), self.cell_vdofs[kept].astype(np.int32),
                 indptr), shape=(self.n_dofs, kept.size))
        tab = self.tabulation()
        # one row per (cell, qp, component, direction) -- one direction for
        # values -- and one entry per local node
        if kind == "grad":
            table = np.swapaxes(tab["grad"], 2, 3)[:, :, None]  # (nc, nq, 1, dim, n_loc)
        else:
            table = tab["phi"][None, :, None, None, :]
        shape = tab["weights"].shape + (self.components, table.shape[3], kept.shape[1])
        mask = np.broadcast_to(np.swapaxes(kept, 1, 2)[:, None, :, None, :], shape)
        cols = np.swapaxes(self.cell_vdofs, 1, 2).astype(np.int32)
        indices = np.broadcast_to(cols[:, None, :, None, :], shape)[mask]
        # the eliminated nodes are the same for every component
        per_row = kept[:, :, 0].sum(axis=1, dtype=np.int32)
        nc, nq, comp, ndir, _ = shape
        indptr = np.zeros(nc * nq * comp * ndir + 1, dtype=np.int32)
        np.cumsum(np.repeat(per_row, nq * comp * ndir), out=indptr[1:])
        return sp.csr_matrix((np.broadcast_to(table, shape)[mask], indices, indptr),
                             shape=(indptr.size - 1, self.n_dofs))

    # -- cached operators ----------------------------------------------------

    @cached_property
    def mass(self):
        return assemble_mass(self)

    @cached_property
    def stiffness(self):
        return assemble_stiffness(self)

    @cached_property
    def mass_solve(self):
        """x = mass_solve(rhs) solves M x = rhs with the SuperLU factor of
        M, taken on first use."""
        with InternalError.from_factorization("mass factorization failed"):
            return spla.splu(self.mass.tocsc()).solve

    @cached_property
    def mean_vector(self):
        """Integrals of the basis functions (scalar spaces), summed per
        cell and then scattered: the lab's seeded Leray rows read these
        bits, which a sum in the load operator's order moves in the last
        place."""
        tab = self.tabulation()
        ones = np.ones(tab["weights"].shape + (self.components,))
        return self.scatter_cells(tab["phi"].T @ (tab["weights"][:, :, None] * ones))


def equal_order_pair(mesh):
    """The scheme's P1/P1 pair (V, Q, G): the zero-trace P1 vector
    velocity space, the P1 pressure space and their gradient coupling
    ``assemble_gradient_coupling(V, Q)``; a mesh on which V has no dof is
    a configuration error."""
    V = FeSpace(mesh, components=mesh.dim, zero_trace=True)
    if V.n_dofs == 0:
        raise ConfigurationError(
            "the zero-trace velocity space has no interior dof (n >= 2)")
    Q = FeSpace(mesh)
    return V, Q, assemble_gradient_coupling(V, Q)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _flat(field):
    """A coefficient vector or a field at quadrature points as one flat
    float vector, in the row order of the transfer operators."""
    return np.asarray(field, dtype=float).reshape(-1)


def _gather(coeffs, vdofs):
    """Coefficients at a table of dofs, zero where a dof is -1."""
    return np.append(np.asarray(coeffs, dtype=float), 0.0)[vdofs]


def _assemble(rows, cols, local, shape):
    """CSR of cell-local entries ``local`` at global (rows, cols); the
    three broadcast together, and entries on an eliminated dof (-1) are
    dropped.  Duplicates are summed by scipy's COO -> CSR conversion."""
    rows, cols, local = np.broadcast_arrays(rows, cols, local)
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((local[keep], (rows[keep], cols[keep])),
                         shape=shape).tocsr()


def _component_diagonal(V, local):
    """Operator acting as the scalar cell blocks ``local`` (nc, nl, nl) on
    every component alike."""
    vd = V.cell_vdofs
    return _symmetrized(_assemble(vd[:, :, None, :], vd[:, None, :, :],
                                  local[..., None], (V.n_dofs, V.n_dofs)))


def assemble_mass(V):
    """L² mass operator; SPD on the constrained space."""
    tab = V.tabulation()
    return _component_diagonal(
        V, np.einsum("cq,qi,qj->cij", tab["weights"], tab["phi"], tab["phi"]))


def assemble_stiffness(V):
    """Dirichlet form (∇·, ∇·); PSD, and PD under zero_trace."""
    tab = V.tabulation()
    return _component_diagonal(
        V, np.einsum("cq,cqid,cqjd->cij", tab["weights"], tab["grad"], tab["grad"]))


def assemble_gradient_coupling(V, Q):
    """Velocity/pressure-gradient pairing G with entries (phi_i, ∇psi_j).

    Rows are vector velocity dofs, columns scalar pressure dofs.  The same
    operator serves the incompressibility equation (transposed) and the
    pressure-gradient term of the subscale equation.  Entries that sum
    to exactly zero are not stored.
    """
    if V.mesh is not Q.mesh:
        raise ConfigurationError("velocity and pressure spaces live on different meshes")
    if V.components != V.mesh.dim:
        raise ConfigurationError("gradient coupling expects a vector velocity space")
    order = max(V.quad_order, Q.quad_order)
    tabv = V.tabulation(order)
    local = np.einsum("cq,qi,cqjk->cijk",
                      tabv["weights"], tabv["phi"], Q.tabulation(order)["grad"])
    mat = _assemble(V.cell_vdofs[:, :, None, :], Q.cell_vdofs[:, None, :, :],
                    local, (V.n_dofs, Q.n_dofs))
    mat.eliminate_zeros()
    return mat


def advection_factor(V, a):
    """Scalar advection factors n_i = a·∇phi_i + ½(∇·a) phi_i at quadrature.

    These are the scalar building blocks of the skew-symmetrized transport
    form: applied to a vector basis function phi_i e_k, the transport term
    is n_i e_k.  The step assembles the convection matrix C(a), entries
    b(a, phi_j, phi_i), from these into its system; the ½(∇·a) phi_i term
    makes vᵀC(a)v vanish for zero-trace v, which the energy balance of
    the time stepper relies on.  Shape (n_cells, n_qp, n_loc).
    """
    tab = V.tabulation()
    grad = tab["grad"]                               # (nc, nq, n_loc, dim)
    cell_a = V._cellwise(a)                          # (nc, n_loc, dim)
    a_qp = tab["phi"] @ cell_a                       # (nc, nq, dim)
    half_div = np.einsum("cqld,cld->cq", grad, cell_a)  # ∇·a = Σ_l a_l · ∇phi_l
    half_div *= 0.5
    n_fac = np.einsum("cqld,cqd->cql", grad, a_qp)
    # ½(∇·a) phi_l added in place one basis function at a time, through
    # one (nc, nq) buffer: no (nc, nq, n_loc) temporary
    term = np.empty_like(half_div)
    for l, phi_l in enumerate(tab["phi"].T):
        np.multiply(half_div, phi_l, out=term)
        np.add(n_fac[:, :, l], term, out=n_fac[:, :, l])
    return n_fac


def as_qp_field(V, f):
    """A field at V's quadrature points, (nc, nq, components), from a
    callable x -> (components,) or an array of that shape."""
    tab = V.tabulation()
    shape = tab["weights"].shape + (V.components,)
    if callable(f):
        vals = f(tab["points"].reshape(-1, V.mesh.dim))
        return np.asarray(vals, dtype=float).reshape(shape)
    f = np.asarray(f, dtype=float)
    if f.shape != shape:
        raise ConfigurationError(
            f"field of shape {f.shape} is not at this space's quadrature "
            f"points {shape}")
    return f


def assemble_load(V, f):
    """Load vector with entries ∫ f · phi_i (quadrature realization of the
    duality pairing).  ``f`` may be a callable or a quadrature-point
    array."""
    return V.load_from_qp(as_qp_field(V, f))


def l2_project(field, V):
    """L² projection onto V: solve M c = load(field)."""
    return V.mass_solve(V.load_from_qp(as_qp_field(V, field)))


def quad_norm(V, qp_field):
    """L² norm of a quadrature-point field via the space's quadrature."""
    f = np.asarray(qp_field, dtype=float)
    return float(np.sqrt(np.einsum("cq,cqk->", V.tabulation()["weights"], f * f)))


def linf_norm(V, u):
    """Max-norm of a degree-1 finite element function: the max over nodes
    of the Euclidean magnitude, which is exact because piecewise-linear
    fields attain their maximum at nodes."""
    if V.degree != 1:
        raise ConfigurationError(
            f"linf_norm supports degree-1 spaces only, got degree {V.degree}")
    u = np.asarray(u, dtype=float)
    if u.shape != (V.n_dofs,):
        raise ConfigurationError(
            f"coefficient vector has shape {u.shape}, expected ({V.n_dofs},)")
    vals = u.reshape(V.n_scalar, V.components)
    return float(np.max(np.linalg.norm(vals, axis=1), initial=0.0))
