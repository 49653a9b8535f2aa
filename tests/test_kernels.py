"""Batched-matmul cell kernels against their einsum definitions, on P1 and
P2 spaces in 2-D and 3-D."""

import numpy as np
import pytest

from vmsns.fe import advection_factor, build_space
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
    V = build_space(mesh, degree=degree, components=dim, constraint="zero_trace")
    Q = build_space(mesh, degree=degree, constraint="zero_mean")
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
