"""Cell kernels and the sparse transfer operators against their einsum
definitions, on P1 and P2 spaces in 2-D and 3-D, at each space's rule."""

import numpy as np
import pytest

from vmsns.fe import FeSpace, advection_factor
from vmsns.mesh import build_structured
from vmsns.solver import _cell_blocks
from vmsns.subgrid import continuity_pairing, residual_field, transport_pairing

import oracles as orc

TOL = 1e-13


@pytest.fixture(scope="module", params=[(2, 1), (2, 2), (3, 1), (3, 2)],
                ids=["2d-p1", "2d-p2", "3d-p1", "3d-p2"])
def spaces(request):
    dim, degree = request.param
    mesh = build_structured(dim, 3 if dim == 2 else 2)
    V = FeSpace(mesh, degree=degree, components=dim, zero_trace=True)
    Q = FeSpace(mesh, degree=degree)
    rng = np.random.default_rng(dim * 10 + degree)
    shape = V.tabulation()["weights"].shape + (dim,)
    return dict(V=V, Q=Q, u=rng.standard_normal(V.n_dofs),
                a=rng.standard_normal(V.n_dofs),
                p=rng.standard_normal(Q.n_dofs),
                field=rng.standard_normal(shape))


def test_eval_at_qp(spaces):
    V, Q, u, p = spaces["V"], spaces["Q"], spaces["u"], spaces["p"]
    assert orc.rel(V.eval_at_qp(u), orc.einsum_eval_at_qp(V, u)) <= TOL
    assert orc.rel(Q.eval_at_qp(p), orc.einsum_eval_at_qp(Q, p)) <= TOL


def test_eval_grad_at_qp(spaces):
    V, Q, u, p = spaces["V"], spaces["Q"], spaces["u"], spaces["p"]
    assert orc.rel(V.eval_grad_at_qp(u), orc.einsum_eval_grad_at_qp(V, u)) <= TOL
    assert orc.rel(Q.eval_grad_at_qp(p), orc.einsum_eval_grad_at_qp(Q, p)) <= TOL


def test_load_from_qp(spaces):
    V, field = spaces["V"], spaces["field"]
    assert orc.rel(V.load_from_qp(field), orc.einsum_load_from_qp(V, field)) <= TOL


def test_advection_factor(spaces):
    V, a = spaces["V"], spaces["a"]
    assert orc.rel(advection_factor(V, a), orc.einsum_advection_factor(V, a)) <= TOL


def test_advection_factor_in_place_is_the_out_of_place_sum(spaces):
    """Adding ½(∇·a) phi_l into the contraction one basis function at a
    time rounds exactly as the whole sum formed out of place."""
    V, a = spaces["V"], spaces["a"]
    tab = V.tabulation()
    cell_a = V._cellwise(a)
    div_a = np.einsum("cqld,cld->cq", tab["grad"], cell_a)
    want = (np.einsum("cqld,cqd->cql", tab["grad"], tab["phi"] @ cell_a)
            + 0.5 * div_a[:, :, None] * tab["phi"])
    assert np.array_equal(advection_factor(V, a), want)


def test_cell_blocks(spaces):
    V, Q = spaces["V"], spaces["Q"]
    n_fac = advection_factor(V, spaces["a"])
    blocks = zip(_cell_blocks(V, Q, n_fac), orc.einsum_cell_blocks(V, Q, n_fac))
    for got, want in blocks:
        assert got.shape == want.shape
        assert orc.rel(got, want) <= TOL


def test_continuity_pairing(spaces):
    Q, field = spaces["Q"], spaces["field"]
    assert orc.rel(continuity_pairing(Q, field),
                   orc.einsum_continuity_pairing(Q, field)) <= TOL


def test_cross_terms(spaces):
    V, Q, field = spaces["V"], spaces["Q"], spaces["field"]
    n_fac = advection_factor(V, spaces["a"])
    assert orc.rel(transport_pairing(V, n_fac, field),
                   orc.einsum_transport_pairing(V, n_fac, field)) <= TOL


@pytest.mark.parametrize("frozen", [False, True], ids=["self", "frozen"])
def test_residual_field(spaces, frozen):
    V, Q, u, p = spaces["V"], spaces["Q"], spaces["u"], spaces["p"]
    a = spaces["a"] if frozen else u
    assert orc.rel(residual_field(V, Q, u, p, advection_factor(V, a)),
                   orc.einsum_residual_field(V, Q, u, p, advection=a)) <= TOL


def test_transfer_operators_are_built_once_per_space_and_kind(monkeypatch):
    V = FeSpace(build_structured(2, 3), components=2, zero_trace=True)
    built = []
    build = FeSpace._build_transfer

    def counting(space, kind):
        built.append(kind)
        return build(space, kind)

    monkeypatch.setattr(FeSpace, "_build_transfer", counting)
    u = np.ones(V.n_dofs)
    for _ in range(3):
        V.load_from_qp(V.eval_at_qp(u))
    # only the kinds used, each once; the load reads E's arrays
    assert built == ["eval", "load"]
    assert set(V._ops) == {"eval", "load"}
    # the weighted adjoint shares E's int32 index arrays
    E, L = V.transfer("eval"), V.transfer("load")
    assert np.shares_memory(E.indices, L.indices)
    assert np.shares_memory(E.indptr, L.indptr)
    assert E.indices.dtype == E.indptr.dtype == np.int32


@pytest.mark.parametrize("degree", [1, 2])
def test_transfer_operators_hold_no_entry_on_an_eliminated_dof(degree):
    V = FeSpace(build_structured(2, 3), degree=degree, components=2,
                zero_trace=True)
    kept = V.cell_vdofs >= 0
    nc, nq = V.tabulation()["weights"].shape
    # every row of a cell lists the cell's kept nodes, and only those
    per_cell = kept[:, :, 0].sum(axis=1)
    for kind, rows_per_cell in (("eval", nq * 2), ("grad", nq * 2 * 2)):
        op = V.transfer(kind)
        assert op.nnz == rows_per_cell * per_cell.sum()
        np.testing.assert_array_equal(np.diff(op.indptr).reshape(nc, -1),
                                      np.repeat(per_cell[:, None], rows_per_cell, axis=1))
    assert V.transfer("scatter").nnz == kept.sum()
    loc = np.random.default_rng(degree).standard_normal(kept.shape)
    # the bincount oracle drops eliminated dofs; the scatter matches it bit for bit
    np.testing.assert_array_equal(V.scatter_cells(loc), orc.scatter_add(V, loc))


def test_cells_on_eliminated_corners_transfer_nothing():
    # n = 3, P1: the corner cells of the diagonal split have every vertex
    # on the boundary, so every dof they touch is eliminated
    V = FeSpace(build_structured(2, 3), components=2, zero_trace=True)
    corner = ~(V.cell_vdofs >= 0).any(axis=(1, 2))
    assert corner.any() and not corner.all()
    nc, nq = V.tabulation()["weights"].shape
    rng = np.random.default_rng(3)
    on_corners = corner[:, None, None]
    assert not V.load_from_qp(rng.standard_normal((nc, nq, 2)) * on_corners).any()
    assert not V.grad_load_from_qp(rng.standard_normal((nc, nq, 2, 2))
                                   * on_corners[..., None]).any()
    assert not V.scatter_cells(rng.standard_normal(V.cell_vdofs.shape) * on_corners).any()
    u = rng.standard_normal(V.n_dofs)
    assert not V.eval_at_qp(u)[corner].any()
    assert not V.eval_grad_at_qp(u)[corner].any()
