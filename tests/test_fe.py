"""Finite element spaces and assembled operators.

Matrix assembly is cross-checked against the dense, loop-based
re-implementations in oracles.py, which use an independently constructed
quadrature rule (collapsed Gauss-Legendre rather than Gauss-Jacobi) and
plain Python scatter loops.  The vectorised edge numbering, degree-2
boundary rule and degree-1 -> degree-2 embedding must equal their loop
oracles exactly: the lab's seeded Leray rows depend on them bit for bit.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from vmsns.errors import ConfigurationError, InternalError
from vmsns.fe import (
    FeSpace,
    as_qp_field,
    assemble_gradient_coupling,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    l2_project,
    linf_norm,
    quad_norm,
)
from vmsns.mesh import Mesh, build_structured, extract_edges
from vmsns.solver import build_discretization

import oracles as orc


def _mesh(n=2):
    return build_structured(2, n)


# ---------------------------------------------------------------------------
# spaces and dof bookkeeping
# ---------------------------------------------------------------------------

def test_dof_counts_by_constraint():
    m = _mesh(2)
    assert FeSpace(m).n_dofs == 9
    assert FeSpace(m, zero_trace=True).n_dofs == 1
    assert FeSpace(m, components=2, zero_trace=True).n_dofs == 2
    V = FeSpace(m, components=2)
    assert V.n_dofs == 18
    assert V.n_scalar == 9


def test_p2_dof_count():
    m = _mesh(2)
    W = FeSpace(m, degree=2)
    edges, _ = extract_edges(m.cells)
    assert W.n_dofs == m.n_vertices + len(edges)


def test_invalid_space_arguments():
    m = _mesh(2)
    with pytest.raises(ConfigurationError):
        FeSpace(m, degree=3)
    with pytest.raises(ConfigurationError):
        FeSpace(m, components=0)


def test_spaces_of_one_degree_on_one_mesh_share_their_tables():
    disc = build_discretization(_mesh(4))
    V, Q = disc.V, disc.Q
    for order in (V.quad_order, V.quad_order + 2):
        assert V.tabulation(order) is Q.tabulation(order)
    # another degree, or the same degree on another mesh, has its own
    V2 = FeSpace(disc.mesh, degree=2)
    assert V2.tabulation() is not V.tabulation(V2.quad_order)
    assert V2.tabulation()["phi"].shape[1] == 6
    other = FeSpace(_mesh(4), components=2, zero_trace=True)
    assert other.tabulation() is not V.tabulation()
    for name, table in V.tabulation().items():
        assert np.array_equal(other.tabulation()[name], table)
    # the cache is no constructor argument, and a moved copy of the mesh
    # tabulates its own geometry
    with pytest.raises(TypeError):
        Mesh(**{f.name: getattr(disc.mesh, f.name) for f in fields(Mesh)})
    moved = replace(disc.mesh, vertices=2.0 * disc.mesh.vertices)
    assert moved.tabulations == {}
    W = FeSpace(moved, components=2, zero_trace=True)
    assert np.allclose(W.tabulation()["weights"], 4.0 * V.tabulation()["weights"])


def test_volume_and_mean_vector():
    V = FeSpace(_mesh(3))
    ones = np.ones(V.n_dofs)
    assert abs(V.mean_vector @ ones - 1.0) < 1e-13


def test_vdofs_interleave_components_and_mark_eliminated_nodes():
    V = FeSpace(_mesh(3), components=2, zero_trace=True)
    nodes = np.arange(V.nodes.shape[0])
    sdof = V.node_dof[:, None]
    want = np.where(sdof >= 0, 2 * sdof + np.array([0, 1]), -1)
    np.testing.assert_array_equal(V.vdofs(nodes), want)
    np.testing.assert_array_equal(V.cell_vdofs, want[V.cell_nodes])


def test_space_without_dofs_gathers_and_scatters_zeros():
    V = FeSpace(_mesh(1), components=2, zero_trace=True)
    assert V.n_dofs == 0
    assert np.all(V.nodal_values(np.zeros(0)) == 0.0)
    assert V.eval_at_qp(np.zeros(0)).shape[1:] == (V.tabulation()["weights"].shape[1], 2)
    assert V.mean_vector.shape == (0,)
    # the transfer operators have no column
    assert V.transfer("eval").shape[1] == V.transfer("grad").shape[1] == 0
    assert not V.eval_grad_at_qp(np.zeros(0)).any()
    assert V.load_from_qp(np.ones(V.tabulation()["weights"].shape + (2,))).shape == (0,)


#: unit boxes and one non-unit box per dimension
NUMBERING_MESHES = [(2, n, box) for n in (1, 2, 3, 8)
                    for box in (None, ((0.0, 2.0), (-1.0, 0.5)))] + [
                   (3, n, box) for n in (1, 2, 3)
                   for box in (None, ((0.0, 2.0), (-1.0, 0.5), (0.25, 1.0)))]


def _numbering_id(case):
    dim, n, box = case
    return f"{dim}d-n{n}-{'unit' if box is None else 'box'}"


@pytest.fixture(params=NUMBERING_MESHES, ids=_numbering_id)
def numbering_mesh(request):
    dim, n, box = request.param
    return build_structured(dim, n, box)


def test_edges_match_the_loop_oracle(numbering_mesh):
    edges, cell_edges = extract_edges(numbering_mesh.cells)
    want_edges, want_cell_edges = orc.loop_extract_edges(numbering_mesh.cells)
    np.testing.assert_array_equal(edges, want_edges)
    np.testing.assert_array_equal(cell_edges, want_cell_edges)
    assert edges.dtype == cell_edges.dtype == np.int64


def test_p2_boundary_nodes_match_the_loop_oracle(numbering_mesh):
    m = numbering_mesh
    W = FeSpace(m, degree=2, components=m.dim, zero_trace=True)
    np.testing.assert_array_equal(W.node_dof, orc.loop_p2_node_dof(m))


@pytest.mark.parametrize("zero_trace", [False, True], ids=["none", "zero_trace"])
def test_embedding_matches_the_loop_oracle(numbering_mesh, zero_trace):
    from vmsns.spectral_lab import _embedding

    m = numbering_mesh
    V1 = FeSpace(m, components=m.dim, zero_trace=True)
    V2 = FeSpace(m, degree=2, components=m.dim, zero_trace=zero_trace)
    np.testing.assert_array_equal(_embedding(m, V1, V2),
                                  orc.loop_embedding(m, V1, V2))


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def test_mass_against_dense_oracle():
    V = FeSpace(_mesh(4), components=2, zero_trace=True)
    M = assemble_mass(V).toarray()
    assert orc.rel(M, orc.dense_vector_mass(V)) < 1e-13
    assert np.max(np.abs(M - M.T)) < 1e-15


def test_mass_partition_of_unity():
    Q = FeSpace(_mesh(3))
    M = assemble_mass(Q).toarray()
    ones = np.ones(Q.n_dofs)
    assert abs(ones @ M @ ones - 1.0) < 1e-13


def test_mass_solve_roundtrip():
    V = FeSpace(_mesh(3), components=2)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(V.n_dofs)
    x = V.mass_solve(b)
    assert orc.rel(assemble_mass(V) @ x, b) < 1e-11


@pytest.mark.parametrize("exc", [SystemError, MemoryError])
def test_a_mass_factorization_out_of_memory_is_an_internal_error(monkeypatch, exc):
    # SuperLU raises SystemError when it cannot expand its work space, and
    # numpy MemoryError when it cannot allocate the factor's arrays
    def failing(*args, **kwargs):
        raise exc("out of memory")

    monkeypatch.setattr(spla, "splu", failing)
    V = FeSpace(_mesh(2), components=2)
    with pytest.raises(InternalError,
                       match=f"mass factorization failed: {exc.__name__}"):
        V.mass_solve(np.zeros(V.n_dofs))


# ---------------------------------------------------------------------------
# stiffness
# ---------------------------------------------------------------------------

def test_stiffness_against_dense_oracle():
    V = FeSpace(_mesh(4), components=2, zero_trace=True)
    K = assemble_stiffness(V).toarray()
    assert orc.rel(K, orc.dense_vector_stiffness(V)) < 1e-13


def test_stiffness_kernel_is_constants():
    Q = FeSpace(_mesh(3))
    K = assemble_stiffness(Q).toarray()
    assert np.max(np.abs(K @ np.ones(Q.n_dofs))) < 1e-14
    # and on the zero-trace space the kernel is trivial
    W = FeSpace(_mesh(3), zero_trace=True)
    Kw = assemble_stiffness(W).toarray()
    assert np.linalg.eigvalsh(Kw)[0] > 1.0


def test_dirichlet_eigenvalue():
    """Smallest eigenvalue of the Dirichlet Laplacian on the unit square is
    2 pi^2; the P1 approximation converges to it from above."""
    import scipy.linalg as sla

    W = FeSpace(build_structured(2, 16), zero_trace=True)
    lam = sla.eigh(
        assemble_stiffness(W).toarray(),
        assemble_mass(W).toarray(),
        eigvals_only=True,
        subset_by_index=[0, 0],
    )[0]
    exact = 2.0 * np.pi ** 2
    assert exact < lam < 1.02 * exact


# ---------------------------------------------------------------------------
# pressure-gradient coupling
# ---------------------------------------------------------------------------

def test_gradient_against_dense_oracle():
    m = _mesh(4)
    V = FeSpace(m, components=2, zero_trace=True)
    Q = FeSpace(m)
    G = assemble_gradient_coupling(V, Q).toarray()
    assert orc.rel(G, orc.dense_gradient(V, Q)) < 1e-13


def test_gradient_annihilates_constants():
    m = _mesh(3)
    V = FeSpace(m, components=2, zero_trace=True)
    Q = FeSpace(m)
    G = assemble_gradient_coupling(V, Q)
    assert np.max(np.abs(G @ np.ones(Q.n_dofs))) < 1e-14


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_gradient_stores_no_exact_zeros(dim, n):
    """Cell contributions cancel to exactly zero at a few entries here;
    stored, they would enter the step's pattern as ζ-p couplings."""
    m = build_structured(dim, n)
    V = FeSpace(m, components=dim, zero_trace=True)
    Q = FeSpace(m)
    G = assemble_gradient_coupling(V, Q)
    assert np.count_nonzero(G.data) == G.nnz


def test_integration_by_parts():
    """(v, grad q) = -(div v, q) for zero-trace v: the divergence side is
    computed directly from quadrature-point gradients."""
    m = _mesh(4)
    V = FeSpace(m, components=2, zero_trace=True)
    Q = FeSpace(m)
    G = assemble_gradient_coupling(V, Q)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(V.n_dofs)
    q = rng.standard_normal(Q.n_dofs)
    lhs = v @ (G @ q)

    tab = V.tabulation()
    gv = V.eval_grad_at_qp(v)           # (nc, nq, comp, dim)
    div_v = gv[:, :, 0, 0] + gv[:, :, 1, 1]
    qv = Q.eval_at_qp(q)[:, :, 0]
    rhs = -float(np.sum(tab["weights"] * div_v * qv))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# convection: the C(a) block of the step's system matrix
# ---------------------------------------------------------------------------

def test_convection_of_zero_field_is_zero():
    disc = build_discretization(_mesh(2))
    C = orc.step_convection(disc, np.zeros(disc.n_u))
    assert np.max(np.abs(C.toarray())) == 0.0


def test_convection_against_dense_oracle():
    disc = build_discretization(_mesh(4))
    rng = np.random.default_rng(11)
    a = rng.standard_normal(disc.n_u)
    C = orc.step_convection(disc, a).toarray()
    assert orc.rel(C, orc.dense_convection(disc.V, a)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_convection_skew_symmetry(seed):
    """The temam-modified form is exactly skew: v^T C(a) v = 0 up to
    roundoff scaled by the operator size, for any advection field."""
    disc = build_discretization(_mesh(3))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(disc.n_u)
    v = rng.standard_normal(disc.n_u)
    C = orc.step_convection(disc, a).toarray()
    scale = np.max(np.abs(C)) * (v @ v) + 1e-30
    assert abs(v @ (C @ v)) < 1e-12 * scale


# ---------------------------------------------------------------------------
# loads and projections
# ---------------------------------------------------------------------------

def test_load_zero_and_constant():
    V = FeSpace(_mesh(3), components=2, zero_trace=True)
    assert np.max(np.abs(assemble_load(V, lambda x: np.zeros_like(x)))) == 0.0
    b = assemble_load(V, lambda x: np.stack([np.ones(len(x)),
                                             2.0 * np.ones(len(x))], axis=-1))
    want = orc.dense_load(V, lambda x: np.array([1.0, 2.0]))
    assert orc.rel(b, want) < 1e-13


def test_load_of_coefficients_is_mass_action():
    V = FeSpace(_mesh(3), components=2, zero_trace=True)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(V.n_dofs)
    assert orc.rel(assemble_load(V, V.eval_at_qp(u)), assemble_mass(V) @ u) < 1e-13


def test_l2_project_reproduces_fe_functions():
    V = FeSpace(_mesh(4), components=2, zero_trace=True)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(V.n_dofs)
    qp = V.eval_at_qp(u)
    assert orc.rel(l2_project(qp, V), u) < 1e-11


def test_l2_project_quadratic_against_normal_equations():
    m = _mesh(4)
    Q = FeSpace(m)
    proj = l2_project(lambda x: (x[:, 0] ** 2)[:, None], Q)
    # dense normal equations with the same quadrature realization of x^2
    M = orc.dense_scalar_mass(Q)
    b = assemble_load(Q, lambda x: (x[:, 0] ** 2)[:, None])
    assert orc.rel(proj, np.linalg.solve(M, b)) < 1e-12


def test_quad_norm_constant():
    V = FeSpace(_mesh(3), components=2)
    f = as_qp_field(V, lambda x: np.stack([3.0 * np.ones(len(x)),
                                           4.0 * np.ones(len(x))], axis=-1))
    assert abs(quad_norm(V, f) - 5.0) < 1e-13


def test_linf_norm_is_exact_nodal_max_for_p1():
    V = FeSpace(_mesh(3), components=2, zero_trace=True)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(V.n_dofs)
    pairs = u.reshape(-1, 2)
    want = float(np.max(np.hypot(pairs[:, 0], pairs[:, 1])))
    assert abs(linf_norm(V, u) - want) < 1e-14
    assert linf_norm(V, np.zeros(V.n_dofs)) == 0.0


def test_linf_norm_scalar_hat():
    Q = FeSpace(_mesh(2))
    e = np.zeros(Q.n_dofs)
    e[4] = -1.0
    assert abs(linf_norm(Q, e) - 1.0) < 1e-14


def test_linf_norm_rejects_degree_2():
    W = FeSpace(_mesh(2), degree=2)
    with pytest.raises(ConfigurationError):
        linf_norm(W, np.zeros(W.n_dofs))


# ---------------------------------------------------------------------------
# quadratic elements
# ---------------------------------------------------------------------------

def test_p2_interpolates_xy_exactly():
    """x*y is in the P2 space; its squared L2 and H1 norms over the unit
    square have closed forms 1/9 and 2/3."""
    m = _mesh(2)
    W = FeSpace(m, degree=2)
    u = W.nodes[:, 0] * W.nodes[:, 1]
    M = assemble_mass(W)
    K = assemble_stiffness(W)
    assert abs(u @ (M @ u) - 1.0 / 9.0) < 1e-13
    assert abs(u @ (K @ u) - 2.0 / 3.0) < 1e-13


def test_p2_gradient_pairing_with_p1_pressure():
    # (w, grad q) with w = (x*y, 0) and q = x: integral of x*y over the square
    m = _mesh(2)
    W = FeSpace(m, degree=2, components=2)
    Q = FeSpace(m)
    w = np.zeros(W.n_dofs)
    w[0::2] = W.nodes[:, 0] * W.nodes[:, 1]
    q = Q.nodes[:, 0]
    G = assemble_gradient_coupling(W, Q)
    assert abs(w @ (G @ q) - 0.25) < 1e-13


# ---------------------------------------------------------------------------
# qp-field coercion
# ---------------------------------------------------------------------------

def test_as_qp_field_accepts_three_forms():
    """A callable, a float array at the quadrature points, returned as
    is, and any array-like of that shape."""
    V = FeSpace(_mesh(2), components=2, zero_trace=True)
    tab = V.tabulation()
    nc, nq = tab["points"].shape[:2]

    from_callable = as_qp_field(V, lambda x: np.stack([x[:, 1], -x[:, 0]], axis=-1))
    assert from_callable.shape == (nc, nq, 2)

    passthrough = np.ones((nc, nq, 2))
    assert as_qp_field(V, passthrough) is passthrough
    assert np.array_equal(as_qp_field(V, passthrough.tolist()), passthrough)


def test_as_qp_field_rejects_bad_shapes():
    V = FeSpace(_mesh(2), components=2, zero_trace=True)
    # coefficient vectors are no field at quadrature points
    for n in (V.n_dofs, V.n_dofs + 1):
        with pytest.raises(ConfigurationError):
            as_qp_field(V, np.ones(n))
    with pytest.raises(ConfigurationError):
        as_qp_field(V, np.ones((3, 3, 3, 3)))
